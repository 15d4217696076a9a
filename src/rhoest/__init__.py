"""Robust density estimation with a bounded Hellinger-type criterion.

The package covers density estimation over finite candidate families,
penalized model selection, convex aggregation of candidate densities,
random-design regression with unknown error distribution, and a Monte
Carlo harness that exercises the robustness properties against
contamination, outliers and singular density representations.
"""

from .aggregation import (CandidateSet, InnerSolverConfig, SimplexPoint,
                          inner_argmax, mixture_upsilon, saddle_point,
                          select_candidate, simplex_grid, t_mix)
from .criterion import (DensityFamily, Penalty, RhoFit, rho_estimate,
                        t_statistic, upsilon, upsilon_all)
from .densities import (Cauchy, Density1D, ExpFamily, Exponential, Gaussian,
                        Histogram, Laplace, PairDensity,
                        PathologicalGaussian, ProductDensity, Sample,
                        Tabulated, Uniform, density_from_json,
                        hellinger_affinity, hellinger_sq,
                        product_hellinger_sq, shifted)
from .errors import (ConfigError, ContractViolationError,
                     DegenerateCandidatesError, QuadratureError, RhoestError,
                     SolverError)
from .harness import (RiskReport, Scenario, contamination_bias, export,
                      mc_risk, mle_counterexample, simulate)
from .models import (ModelDescriptor, build_exp_family_grid,
                     build_gaussian_location_grid, build_histogram_family,
                     dimension_bound_entropy, dimension_bound_finite,
                     dimension_bound_vc, eta_bar_finite)
from .psi import PsiKernel, check_assumption, eval_psi, kernel_constants, psi_pair
from .quadrature import QuadratureSpec, integrate_1d
from .regression import (RegressionFit, RegressionFunction, RegressionModel,
                         build_regression_family, check_identifiability,
                         d_s_loss, fit_regression)
from .selection import (ModelCollection, penalty_for, risk_bound_report,
                        select, uniform_weights)

__version__ = "0.1.0"
