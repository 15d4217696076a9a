"""Concrete model builders and dimension-bound calculators.

Builders produce finite, explicitly represented families (grids of Gaussians,
piecewise-constant densities, exponential families) carrying a complexity
bound that drives the selection penalties.  The bound can come from the
family cardinality, a VC-subgraph index, or an entropy dimension; all bounds
live in [1, n/6].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .aggregation import _lattice_size, simplex_grid_array
from .criterion import _MAX_FAMILY, DensityFamily
from .densities import (ExpFamily, Gaussian, Histogram, ProductDensity,
                        integrate_on_supports, product_hellinger_sq)
from .errors import (Checked, ContractViolationError, _count, _each, _finite, _grid,
                     _instance, _items, _nonnegative, _of, _overflows, _scale, _shown, _vector)
from .psi import PsiKernel
from .quadrature import FINE_QUAD, QuadratureSpec

__all__ = [
    "ModelDescriptor",
    "build_gaussian_location_grid",
    "build_histogram_family",
    "build_exp_family_grid",
    "dimension_bound_finite",
    "dimension_bound_vc",
    "dimension_bound_entropy",
    "eta_bar_finite",
]

DEFAULT_C1 = 1.0


@dataclass(frozen=True)
class ModelDescriptor(Checked):
    """A family with the dimension bound and weight that penalized selection
    reads."""

    family: DensityFamily
    dim_bound: float
    delta_weight: float = 0.0
    rules = {"family": _of(DensityFamily), "dim_bound": _finite, "delta_weight": _nonnegative}

    def _check(self):
        if self.dim_bound < 1.0:
            raise ContractViolationError("dimension bounds are >= 1")


# ---------------------------------------------------------------------------
# Dimension bounds
# ---------------------------------------------------------------------------

def dimension_bound_finite(cardinality: int) -> float:
    """9 log(2 |Q|), floored at 1; the cardinality-only bound."""
    _count("cardinality", cardinality)
    return max(1.0, 9.0 * math.log(2.0 * cardinality))


def dimension_bound_vc(vc_index: float, n: int, c1: float = DEFAULT_C1) -> float:
    """min(C1 * V * (1 + log+(n/V)), n/6), floored at 1."""
    if not _finite("vc_index", vc_index) >= 1:
        raise ContractViolationError(f"vc_index must be >= 1, got {vc_index!r}")
    _scale("c1", c1)
    if vc_index > _count("n", n):
        warnings.warn("VC index exceeds n; clamping to the n/6 cap", stacklevel=2)
        return max(1.0, n / 6.0)
    raw = c1 * vc_index * (1.0 + max(0.0, math.log(n / vc_index)))
    return max(1.0, min(raw, n / 6.0))


def dimension_bound_entropy(v: float) -> float:
    """18 * max(1, V log2 / 2) for entropy dimension V >= 0."""
    _nonnegative("entropy dimension", v)
    return 18.0 * max(1.0, v * math.log(2.0) / 2.0)


def eta_bar_finite(fam: DensityFamily, kernel, center_pool: DensityFamily | None = None,
                   quad: QuadratureSpec | None = None) -> float:
    """Critical radius of a finite family from its local metric massiveness.

    The ball-count profile H(y) = max over centers P of log+(2 |{Q : h(P,Q)
    <= y}|) is evaluated with the centers restricted to ``center_pool``
    (default: the family itself), which understates the unrestricted profile;
    the result is therefore a documented lower bound.  Returns
    sup{z > 0 : sqrt(H(z/beta)) > z / x0}, located exactly on the plateaus of
    the step function H, and never exceeding 3 sqrt(log(2 |family|)).
    """
    _instance("fam", fam, DensityFamily)
    _instance("kernel", kernel, PsiKernel)
    center_pool = _instance("center_pool", center_pool, DensityFamily, fam)
    beta = kernel.beta
    x0 = math.sqrt(2.0) * (math.sqrt(1.0 + beta / kernel.a2) + 1.0)

    # Pairwise product-Hellinger distances center -> family entry.
    dists = np.array([[math.sqrt(max(0.0, product_hellinger_sq(p, q, quad)))
                       for q in fam.entries] for p in center_pool.entries])

    def profile(y):
        counts = (dists <= y).sum(axis=1)
        best = counts.max()
        return math.log(2.0 * best) if best >= 1 else 0.0

    # H(z/beta) changes only where z/beta crosses a pairwise distance, so the
    # supremum can be computed plateau by plateau: on a plateau with value H,
    # the condition sqrt(H) > z/x0 holds exactly for z < x0 sqrt(H).
    cut_z = np.unique(np.concatenate([[0.0], (dists * beta).ravel()]))
    z_cap = 3.0 * math.sqrt(math.log(2.0 * len(fam)))
    cut_z = np.concatenate([cut_z[cut_z < z_cap], [z_cap]])
    eta = 0.0
    for z_lo, z_hi in zip(cut_z[:-1], cut_z[1:]):
        h_val = profile(0.5 * (z_lo + z_hi) / beta)
        bound = x0 * math.sqrt(h_val)
        if bound > z_lo:
            eta = max(eta, min(bound, z_hi))
    return min(eta, z_cap)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _check_grid(lo: float, hi: float, step: float,
                names=("grid min", "grid max", "grid step")) -> list:
    """lo + i * step for i < floor((hi - lo) / step + 1e-9) + 1, as floats.

    Rejects values that are no finite numbers (under their ``names``),
    lo > hi, a step <= 0 and more points than a family may hold entries."""
    lo, hi, step = (float(_finite(name, v)) for name, v in zip(names, (lo, hi, step)))
    if not lo <= hi:
        raise ContractViolationError(f"grid needs min <= max, got [{lo!r}, {hi!r}]")
    if not step > 0:
        raise ContractViolationError(f"grid step must be > 0, got {step!r}")
    span = (hi - lo) / step + 1e-9  # inf when hi - lo overflows
    if not span < _MAX_FAMILY:
        raise ContractViolationError(f"grid step {step!r} on [{lo!r}, {hi!r}] "
                                     f"makes more than {_MAX_FAMILY} points")
    return [lo + i * step for i in range(int(span) + 1)]


def _theta_labels(thetas) -> list:
    """``theta=<t>`` labels in ``g`` style with the fewest significant digits,
    at least ``:g``'s six, that keep the labels of distinct values distinct."""
    for digits in range(6, 18):
        labels = [f"theta={t:.{digits}g}" for t in thetas]
        if len(set(labels)) == len(set(thetas)):
            break
    return labels


def build_gaussian_location_grid(theta_min: float, theta_max: float, step: float,
                                 sd: float, n: int,
                                 c1: float = DEFAULT_C1) -> ModelDescriptor:
    """i.i.d. N(theta, sd^2) entries on a regular location grid.

    A one-parameter exponential family, hence VC-subgraph index 3.
    """
    names = ("theta_min", "theta_max", "step")
    if not _finite(names[0], theta_min) < _finite(names[1], theta_max):
        raise ContractViolationError("need theta_min < theta_max")
    thetas = _check_grid(theta_min, theta_max, step, names)
    family = DensityFamily.iid(Gaussian, n, labels=_theta_labels(thetas),
                               mean=np.array(thetas, dtype=float),
                               sd=np.full(len(thetas), _scale("sd", sd), dtype=float))
    return ModelDescriptor(family=family, dim_bound=dimension_bound_vc(3, n, c1))


def build_histogram_family(breakpoint_grids, k: int, n: int,
                           mass_steps: int = 4,
                           c1: float = DEFAULT_C1) -> ModelDescriptor:
    """All normalized histograms with <= k pieces over the given breakpoints.

    Each element of ``breakpoint_grids`` is one increasing breakpoint
    sequence (at most k pieces); piece masses run over a simplex lattice with
    ``mass_steps`` subdivisions.  Piecewise-constant densities with at most k
    pieces have VC-subgraph dimension 2k, hence index 2k + 1.  Each lattice
    point of each distinct grid is one family entry; their count is checked
    against the family's limit before any lattice is enumerated.
    """
    if _overflows(2 * _count("k", k) + 1):
        raise ContractViolationError(
            f"k must be small enough for its VC index 2k + 1 to fit a float, got {_shown(k)}")
    mass_steps = _count("mass_steps", mass_steps)
    grids = dict.fromkeys(_each("breakpoint_grids", breakpoint_grids, _grid, least=1))
    for breaks in grids:
        pieces = len(breaks) - 1
        if not 1 <= pieces <= k:
            raise ContractViolationError(
                f"breakpoints {breaks} define {pieces} pieces, not 1 to k = {k}")
    if sum(_lattice_size(len(b) - 1, mass_steps) for b in grids) > _MAX_FAMILY:
        raise ContractViolationError(
            f"histogram family at mass_steps = {mass_steps} makes more than "
            f"{_MAX_FAMILY} lattice points")
    entries, labels = [], []
    for breaks in grids:
        widths = np.diff(breaks)
        for row in simplex_grid_array(len(breaks) - 1, mass_steps)[::-1]:
            masses = tuple(row.tolist())
            heights = tuple(m / w for m, w in zip(masses, widths))
            entries.append(ProductDensity(iid=Histogram(breaks, heights), n=n))
            labels.append(f"breaks={breaks} masses={masses}")
    return ModelDescriptor(family=DensityFamily(entries, labels=labels),
                           dim_bound=dimension_bound_vc(2 * k + 1, n, c1))


def build_exp_family_grid(basis, coefficient_grid, lo: float, hi: float, n: int,
                          quad: QuadratureSpec | None = None,
                          c1: float = DEFAULT_C1) -> ModelDescriptor:
    """Normalized exponential-family densities over a coefficient grid.

    Coefficient vectors whose normalizer diverges are rejected and reported
    in the descriptor labels.  An exponential family on J basis functions is
    VC-subgraph with index at most J + 2.
    """
    quad = _instance("quad", quad, QuadratureSpec, FINE_QUAD)
    basis = _items("basis", basis)
    entries, labels, rejected = [], [], []
    for coeffs in _each("coefficient_grid", coefficient_grid, _vector):
        unnormalized = ExpFamily(basis, coeffs, 0.0, lo, hi)
        try:
            z = integrate_on_supports(
                lambda x: np.exp(np.minimum(unnormalized.log_pdf(x), 700.0)),
                (unnormalized,), quad=quad)
        except ArithmeticError:
            z = float("inf")
        if not (math.isfinite(z) and 0 < z < 1e300):
            rejected.append(coeffs)
            continue
        dens = ExpFamily(basis, coeffs, math.log(z), lo, hi)
        entries.append(ProductDensity(iid=dens, n=n))
        labels.append(f"coeffs={coeffs}")
    if not entries:
        raise ContractViolationError("all coefficient vectors were rejected")
    if rejected:
        warnings.warn(f"rejected {len(rejected)} divergent coefficient vectors: "
                      f"{rejected}", stacklevel=2)
    return ModelDescriptor(family=DensityFamily(entries, labels=labels),
                           dim_bound=dimension_bound_vc(len(basis) + 2, n, c1))
