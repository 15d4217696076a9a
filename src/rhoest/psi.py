"""Bounded likelihood-ratio transforms and their certified constants.

Two transforms are shipped: ``psi1(x) = (x-1)/sqrt(x^2+1)`` and
``psi2(x) = (x-1)/(x+1)``, both monotone from [0, +inf] onto a subinterval of
[-1, 1], antisymmetric under inversion (psi(1/x) = -psi(x)) and equal to 1 at
+inf.  Their constants (a0, a1, a2^2) certify the expectation and variance
inequalities that drive every risk bound downstream; they are hard-coded, not
re-derived.  psi2 is the recommended default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import Density1D, hellinger_sq, integrate_on_supports
from .errors import ContractViolationError
from .quadrature import QuadratureSpec

__all__ = ["PsiKernel", "kernel_constants", "eval_psi", "psi_pair",
           "check_assumption"]


@dataclass(frozen=True)
class PsiKernel:
    """A psi transform plus its certified constants and derived quantities."""

    id: str
    a0: float
    a1: float
    a2_sq: float

    def __post_init__(self):
        if not (self.a0 >= 1.0 >= self.a1 > 0.0):
            raise ContractViolationError("need a0 >= 1 >= a1 > 0")
        if not self.a2_sq >= max(1.0, 6.0 * self.a1):
            raise ContractViolationError("need a2^2 >= max(1, 6 a1)")

    @property
    def a2(self) -> float:
        return math.sqrt(self.a2_sq)

    @property
    def beta(self) -> float:
        return self.a1 / (4.0 * self.a2)

    @property
    def kappa(self) -> float:
        return 35.0 * self.a2_sq / self.a1 + 74.0

    @property
    def gamma(self) -> float:
        return 4.0 * (self.a0 + 16.0) / self.a1 + 2.0 + 168.0 / self.a2_sq

    def ratio(self, u, v):
        """psi(u / v) on the pair (u, v), without :func:`psi_pair`'s 0 and inf cases."""
        if self.id == "psi1":
            return (u - v) / np.sqrt(u * u + v * v)
        return (u - v) / (u + v)

    @property
    def ratio_exact_at_zero(self) -> bool:
        """Whether ratio(a, 0) == 1 and ratio(0, a) == -1 for every finite a > 0.

        psi2 divides a by a.  psi1 divides a by sqrt(a * a), which differs
        from a once a * a underflows or overflows.
        """
        return self.id != "psi1"

    def ratio_du(self, u, v):
        """d/du of :meth:`ratio` for u, v > 0."""
        if self.id == "psi1":
            return v * (u + v) / np.power(u * u + v * v, 1.5)
        return 2.0 * v / (u + v) ** 2


_KERNELS = {
    "psi1": PsiKernel("psi1", a0=4.97, a1=0.083, a2_sq=3.0 + 2.0 * math.sqrt(2.0)),
    "psi2": PsiKernel("psi2", a0=4.0, a1=3.0 / 8.0, a2_sq=3.0 * math.sqrt(2.0)),
}

DEFAULT_KERNEL_ID = "psi2"


def kernel_constants(kernel_id: str = DEFAULT_KERNEL_ID) -> PsiKernel:
    try:
        return _KERNELS[kernel_id]
    except KeyError:
        raise ContractViolationError(
            f"unknown kernel {kernel_id!r}; choose from {sorted(_KERNELS)}")


def eval_psi(kernel: PsiKernel, x):
    """psi(x) for x in [0, +inf]; psi(+inf) = 1."""
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)) or np.any(x < 0):
        raise ContractViolationError("psi expects x >= 0 (or +inf)")
    return psi_pair(kernel, x, 1.0)


def psi_pair(kernel: PsiKernel, num_sqrt, den_sqrt):
    """psi(sqrt(q'/q)) from the square roots u = sqrt(q'), v = sqrt(q).

    Evaluating on the (u, v) pair keeps swap-antisymmetry exact in floating
    point.  The conventions are 0/0 -> psi(1) = 0, inf/inf -> 0,
    a/0 and inf/a -> psi(+inf) = 1, and 0/a and a/inf -> psi(0) = -1; infinite
    roots come from singular density representations, where only the
    comparison of u and v matters.

    One pass of :meth:`PsiKernel.ratio` gives every value except on the
    entries where it returns NaN (0/0 and any infinite root); only those are
    then set, from the sign of u - v.  For a kernel whose ratio is not exact
    at a one-sided zero (:attr:`PsiKernel.ratio_exact_at_zero`), the entries
    with a zero root are set the same way.  NaN roots raise
    :class:`ContractViolationError`.
    """
    u = np.asarray(num_sqrt, dtype=float)
    v = np.asarray(den_sqrt, dtype=float)
    # min propagates NaN, which fails the comparison: NaN roots are rejected too.
    if not (u.min(initial=0.0) >= 0.0 and v.min(initial=0.0) >= 0.0):
        raise ContractViolationError("density square roots must be nonnegative numbers")
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        vals = kernel.ratio(u, v)
    fix = np.isnan(vals)
    if not kernel.ratio_exact_at_zero:
        fix = fix | (u == 0.0) | (v == 0.0)
    if vals.ndim == 0:
        return float(_sign(u, v) if fix else vals)
    if fix.any():
        at = np.nonzero(fix)
        # np.broadcast_to costs more than the rest of a small call.
        if u.shape != vals.shape or v.shape != vals.shape:
            u, v = np.broadcast_to(u, vals.shape), np.broadcast_to(v, vals.shape)
        vals[at] = _sign(u[at], v[at])
    return vals


def _sign(u, v):
    """+1, -1 or +0.0 as u > v, u < v or u == v (also for zero and infinite roots)."""
    return (u > v) * 1.0 - (u < v)


def check_assumption(kernel: PsiKernel, q: Density1D, qp: Density1D,
                     r: Density1D, quad: QuadratureSpec | None = None) -> dict:
    """Numerically certify the two kernel inequalities on a (q, q', R) triple.

    R must be absolutely continuous w.r.t. the common dominating measure of q
    and q'.  Returns both sides of the expectation and variance inequalities;
    ``pass`` requires lhs <= rhs + tolerance for both.
    """
    quad = quad or QuadratureSpec(abs_tol=1e-10)
    h2_rq = hellinger_sq(r, q, quad)
    h2_rqp = hellinger_sq(r, qp, quad)

    def psi_at(x):
        return psi_pair(kernel, np.sqrt(qp.pdf(x)), np.sqrt(q.pdf(x)))

    # Both integrands carry the factor r(x), so they run over r's support.
    lhs_esp = integrate_on_supports(lambda x: psi_at(x) * r.pdf(x),
                                    (r,), (q, qp), quad)
    lhs_var = integrate_on_supports(lambda x: psi_at(x) ** 2 * r.pdf(x),
                                    (r,), (q, qp), quad)
    rhs_esp = kernel.a0 * h2_rq - kernel.a1 * h2_rqp
    rhs_var = kernel.a2_sq * (h2_rq + h2_rqp)
    tol = max(quad.abs_tol, 1e-9)
    return {
        "lhs_esp": lhs_esp,
        "rhs_esp": rhs_esp,
        "lhs_var": lhs_var,
        "rhs_var": rhs_var,
        "pass": bool(lhs_esp <= rhs_esp + tol and lhs_var <= rhs_var + tol),
    }
