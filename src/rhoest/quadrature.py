"""Adaptive 1-D integration with an explicit failure contract.

Thin wrapper around scipy's QUADPACK bindings: integrands are split at
known kink locations, and the subdivision budget escalates geometrically
until the requested absolute tolerance is met or the budget is exhausted.
Density integrals reach it through ``densities.integrate_on_supports``,
which chooses the range and the kinks.

``scipy.integrate`` takes most of a second to import, and the rho-estimator,
selection and Monte Carlo paths never integrate, so the module attribute
``integrate`` is bound on first access (PEP 562 ``__getattr__``) instead of
at import.  :func:`integrate_1d` reaches QUADPACK through that attribute, so
a replacement bound there is honoured: the benchmark tracer
(perfbench/tracing.py) swaps in a stand-in that counts ``quad`` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, QuadratureError

__all__ = ["QuadratureSpec", "integrate_1d"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute error tolerance and subdivision budget of :func:`integrate_1d`."""

    abs_tol: float = 1e-9
    max_subdivisions: int = 2**20

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ContractViolationError("abs_tol must be > 0")
        if self.max_subdivisions < 1:
            raise ContractViolationError("max_subdivisions must be >= 1")


def __getattr__(name):
    """Import ``scipy.integrate`` on the first access of ``integrate``."""
    if name != "integrate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global integrate
    from scipy import integrate
    return integrate


def _segments(lo, hi, points):
    cuts = sorted({p for p in points if lo < p < hi})
    edges = [lo, *cuts, hi]
    return list(zip(edges[:-1], edges[1:]))


def integrate_1d(fn, lo, hi, spec=None, points=()):
    """Integrate ``fn`` over ``(lo, hi)``.

    ``points`` lists interior locations where the integrand is known to be
    non-smooth; the range is split there before handing each segment to the
    adaptive routine.  Raises :class:`QuadratureError`, with QUADPACK's own
    reason when it gives one, when the estimated absolute error stays above
    ``spec.abs_tol`` at the full subdivision budget, and at once when the
    value or its error estimate is NaN.  QUADPACK's warnings are not emitted.
    """
    spec = spec or QuadratureSpec()
    if hi <= lo:
        return 0.0
    quadpack = globals().get("integrate") or __getattr__("integrate")
    segs = _segments(lo, hi, points)
    per_seg_tol = spec.abs_tol / len(segs)
    total = 0.0
    for a, b in segs:
        limit = min(50, spec.max_subdivisions)
        while True:
            with np.errstate(all="ignore"):
                val, err, _, *message = quadpack.quad(
                    fn, a, b, epsabs=per_seg_tol, epsrel=0.0, limit=limit,
                    full_output=1)
            nan = math.isnan(val + err)  # more subdivisions cannot repair a NaN
            if not nan and (err <= per_seg_tol
                            or err <= spec.abs_tol * max(1.0, abs(val))):
                break
            if nan or limit >= spec.max_subdivisions:
                reason = f": {' '.join(message[0].split())}" if message else ""
                raise QuadratureError(
                    f"integral over ({a}, {b}) did not converge: "
                    f"error estimate {err:.3e} > tolerance {per_seg_tol:.3e} "
                    f"at {limit} subdivisions{reason}")
            limit = min(limit * 10, spec.max_subdivisions)
        total += val
    return total
