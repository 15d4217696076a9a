"""Bounded likelihood-ratio transforms and their certified constants.

Two transforms are shipped: ``psi1(x) = (x-1)/sqrt(x^2+1)`` and
``psi2(x) = (x-1)/(x+1)``, both monotone from [0, +inf] onto a subinterval of
[-1, 1], antisymmetric under inversion (psi(1/x) = -psi(x)) and equal to 1 at
+inf.  Their constants (a0, a1, a2^2) certify the expectation and variance
inequalities that drive every risk bound downstream; they are hard-coded, not
re-derived.  psi2 is the recommended default.
"""

from __future__ import annotations

import functools
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
        """psi(u / v) on the pair (u, v), without :func:`psi_pair`'s 0 and inf cases.

        On a float ``u`` it computes in Python floats, which give the same
        bits as numpy but raise ZeroDivisionError where numpy gives +-inf.
        """
        if self.id == "psi1":
            sqrt = math.sqrt if isinstance(u, float) else np.sqrt
            return (u - v) / sqrt(u * u + v * v)
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

    ``num_sqrt`` and ``den_sqrt`` are scalars or arrays that broadcast
    together; the result has their broadcast shape, and is a Python float
    when both are scalars.  Evaluating on the (u, v) pair keeps
    swap-antisymmetry exact in floating point.  The conventions are
    0/0 -> psi(1) = 0, inf/inf -> 0, a/0 and inf/a -> psi(+inf) = 1, and
    0/a and a/inf -> psi(0) = -1; infinite roots come from singular density
    representations, where only the comparison of u and v matters.

    One pass of :meth:`PsiKernel.ratio` gives every value except on the
    entries where it returns NaN (0/0 and any infinite root).  Only those are
    then set, from the sign of u - v, through their flat indices into the
    broadcast operands.  For a kernel whose ratio is not exact at a one-sided
    zero (:attr:`PsiKernel.ratio_exact_at_zero`), the entries with a zero
    root are set the same way.  NaN or negative roots raise
    :class:`ContractViolationError`.

    Two float operands (``np.float64`` included), such as QUADPACK's nodes
    in :func:`check_assumption`, skip numpy's array path and give the same
    bits: equal, zero and infinite roots take the sign of u - v, and every
    other pair calls the same :meth:`PsiKernel.ratio` on Python floats.
    """
    if isinstance(num_sqrt, float) and isinstance(den_sqrt, float):
        # Python floats: np.float64 arithmetic would warn on overflow.
        u, v = float(num_sqrt), float(den_sqrt)
        if not (u >= 0.0 and v >= 0.0):  # NaN fails the comparison too
            raise ContractViolationError(
                "density square roots must be nonnegative numbers")
        if u == v or u == 0.0 or v == 0.0 or u == math.inf or v == math.inf:
            return _sign(u, v)
        try:
            return kernel.ratio(u, v)
        except ZeroDivisionError:  # psi1's u*u + v*v underflows; numpy gives +-inf
            return _sign(u, v) * math.inf
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
        at = np.flatnonzero(fix)
        # np.broadcast_to costs more than the rest of a small call.
        if u.shape != vals.shape or v.shape != vals.shape:
            u, v = np.broadcast_to(u, vals.shape), np.broadcast_to(v, vals.shape)
        vals.flat[at] = _sign(u.flat[at], v.flat[at])
    return vals


def _sign(u, v):
    """+1, -1 or +0.0 as u > v, u < v or u == v (also for zero and infinite roots)."""
    return (u > v) * 1.0 - (u < v)


def check_assumption(kernel: PsiKernel, q: Density1D, qp: Density1D,
                     r: Density1D, quad: QuadratureSpec | None = None) -> dict:
    """Numerically certify the two kernel inequalities on a (q, q', R) triple.

    The left-hand sides are lhs_esp = E_R[psi] and lhs_var = E_R[psi^2], with
    psi = psi(sqrt(q'/q)); the right-hand sides are
    rhs_esp = a0 h^2(R, q) - a1 h^2(R, q') and
    rhs_var = a2^2 (h^2(R, q) + h^2(R, q')).  R must be absolutely continuous
    w.r.t. the common dominating measure of q and q'.

    Both left-hand integrals run over R's support with the same kinks, so
    QUADPACK asks them for nearly the same nodes: each distinct node's psi
    and R values are computed once per call and read by both integrands.
    QUADPACK passes one float node at a time, and the Gaussian, Laplace and
    Cauchy pdfs and :func:`psi_pair` take their float paths on it, with the
    same bits as on arrays.  Returns the four sides; ``pass`` requires
    lhs <= rhs + tolerance for both.
    """
    quad = quad or QuadratureSpec(abs_tol=1e-10)
    h2_rq = hellinger_sq(r, q, quad)
    h2_rqp = hellinger_sq(r, qp, quad)

    # The cache relies on QUADPACK calling each integrand with one scalar
    # node at a time: the float node is the key.
    @functools.cache
    def psi_and_r(x):
        return psi_pair(kernel, np.sqrt(qp.pdf(x)), np.sqrt(q.pdf(x))), r.pdf(x)

    def esp(x):
        psi, rx = psi_and_r(x)
        return psi * rx

    def var(x):
        psi, rx = psi_and_r(x)
        return psi ** 2 * rx

    # Both integrands carry the factor r(x), so they run over r's support.
    lhs_esp = integrate_on_supports(esp, (r,), (q, qp), quad)
    lhs_var = integrate_on_supports(var, (r,), (q, qp), quad)
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
