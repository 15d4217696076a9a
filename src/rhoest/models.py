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

from .aggregation import simplex_grid_array
from .criterion import DensityFamily
from .densities import (ExpFamily, Gaussian, Histogram, ProductDensity,
                        integrate_on_supports, product_hellinger_sq)
from .errors import ContractViolationError, QuadratureError
from .quadrature import QuadratureSpec

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


@dataclass
class ModelDescriptor:
    """A family plus the complexity metadata used by penalized selection."""

    family: DensityFamily
    dim_bound: float
    bound_source: str
    vc_index: int | None = None
    delta_weight: float = 0.0

    def __post_init__(self):
        if self.dim_bound < 1.0:
            raise ContractViolationError("dimension bounds are >= 1")
        if self.bound_source not in ("finite", "vc", "entropy", "user"):
            raise ContractViolationError(f"unknown bound source {self.bound_source!r}")
        if self.delta_weight < 0:
            raise ContractViolationError("weights are nonnegative")

    def to_json(self):
        return {
            "size": len(self.family),
            "n": self.family.n,
            "labels": list(self.family.labels),
            "dim_bound": self.dim_bound,
            "bound_source": self.bound_source,
            "vc_index": self.vc_index,
            "delta_weight": self.delta_weight,
        }


# ---------------------------------------------------------------------------
# Dimension bounds
# ---------------------------------------------------------------------------

def dimension_bound_finite(cardinality: int) -> float:
    """9 log(2 |Q|), floored at 1; the cardinality-only bound."""
    if cardinality < 1:
        raise ContractViolationError("cardinality must be >= 1")
    return max(1.0, 9.0 * math.log(2.0 * cardinality))


def dimension_bound_vc(vc_index: float, n: int, c1: float = DEFAULT_C1) -> float:
    """min(C1 * V * (1 + log+(n/V)), n/6), floored at 1."""
    if vc_index < 1 or n < 1 or c1 <= 0:
        raise ContractViolationError("need vc_index >= 1, n >= 1, c1 > 0")
    if vc_index > n:
        warnings.warn("VC index exceeds n; clamping to the n/6 cap", stacklevel=2)
        return max(1.0, n / 6.0)
    raw = c1 * vc_index * (1.0 + max(0.0, math.log(n / vc_index)))
    return max(1.0, min(raw, n / 6.0))


def dimension_bound_entropy(v: float) -> float:
    """18 * max(1, V log2 / 2) for entropy dimension V >= 0."""
    if v < 0:
        raise ContractViolationError("entropy dimension must be >= 0")
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
    center_pool = center_pool or fam
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

def build_gaussian_location_grid(theta_min: float, theta_max: float, step: float,
                                 sd: float, n: int,
                                 c1: float = DEFAULT_C1) -> ModelDescriptor:
    """i.i.d. N(theta, sd^2) entries on a regular location grid.

    A one-parameter exponential family, hence VC-subgraph index 3.
    """
    if step <= 0 or theta_min >= theta_max:
        raise ContractViolationError("need step > 0 and theta_min < theta_max")
    count = int(math.floor((theta_max - theta_min) / step + 1e-9)) + 1
    thetas = [theta_min + i * step for i in range(count)]
    if not thetas:
        raise ContractViolationError("empty location grid")
    entries = [ProductDensity(iid=Gaussian(t, sd), n=n, label=f"theta={t:g}")
               for t in thetas]
    vc = 3
    return ModelDescriptor(
        family=DensityFamily(entries, vc_index=vc),
        dim_bound=dimension_bound_vc(vc, n, c1),
        bound_source="vc",
        vc_index=vc,
    )


def build_histogram_family(breakpoint_grids, k: int, n: int,
                           mass_steps: int = 4,
                           c1: float = DEFAULT_C1) -> ModelDescriptor:
    """All normalized histograms with <= k pieces over the given breakpoints.

    Each element of ``breakpoint_grids`` is one increasing breakpoint
    sequence (at most k pieces); piece masses run over a simplex lattice with
    ``mass_steps`` subdivisions.  Piecewise-constant densities with at most k
    pieces have VC-subgraph dimension 2k, hence index 2k + 1.
    """
    if k < 1 or mass_steps < 1:
        raise ContractViolationError("k and mass_steps must be >= 1")
    entries, labels = [], []
    seen = set()
    for breaks in breakpoint_grids:
        breaks = tuple(float(b) for b in breaks)
        pieces = len(breaks) - 1
        if not 1 <= pieces <= k:
            raise ContractViolationError(
                f"breakpoints {breaks} define {pieces} pieces, not 1 to k = {k}")
        widths = np.diff(breaks)
        for row in simplex_grid_array(pieces, mass_steps)[::-1]:
            masses = tuple(row.tolist())
            heights = tuple(m / w for m, w in zip(masses, widths))
            hist = Histogram(breaks, heights)
            if hist.key() in seen:
                continue
            seen.add(hist.key())
            entries.append(ProductDensity(iid=hist, n=n))
            labels.append(f"breaks={breaks} masses={masses}")
    if not entries:
        raise ContractViolationError("histogram family is empty")
    vc = 2 * k + 1
    return ModelDescriptor(
        family=DensityFamily(entries, labels=labels, vc_index=vc),
        dim_bound=dimension_bound_vc(vc, n, c1),
        bound_source="vc",
        vc_index=vc,
    )


def build_exp_family_grid(basis, coefficient_grid, lo: float, hi: float, n: int,
                          quad: QuadratureSpec | None = None,
                          c1: float = DEFAULT_C1) -> ModelDescriptor:
    """Normalized exponential-family densities over a coefficient grid.

    Coefficient vectors whose normalizer diverges are rejected and reported
    in the descriptor labels.  An exponential family on J basis functions is
    VC-subgraph with index at most J + 2.
    """
    quad = quad or QuadratureSpec(abs_tol=1e-10)
    basis = tuple(basis)
    entries, labels, rejected = [], [], []
    for coeffs in coefficient_grid:
        unnormalized = ExpFamily(basis, coeffs, 0.0, lo, hi)
        coeffs = unnormalized.coeffs
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                z = integrate_on_supports(
                    lambda x: np.exp(np.minimum(unnormalized.log_pdf(x), 700.0)),
                    (unnormalized,), quad=quad)
        except (QuadratureError, ArithmeticError):
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
    vc = len(basis) + 2
    return ModelDescriptor(
        family=DensityFamily(entries, labels=labels, vc_index=vc),
        dim_bound=dimension_bound_vc(vc, n, c1),
        bound_source="vc",
        vc_index=vc,
    )
