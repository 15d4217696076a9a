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

    def ratio(self, u, v, out=None):
        """psi(u / v) on the pair (u, v), without :func:`psi_pair`'s 0 and inf cases.

        On a float ``u`` it computes in Python floats, which give the same
        bits as numpy but raise ZeroDivisionError where numpy gives +-inf.
        On arrays it writes into ``out``, a ``(2, *shape)`` workspace for the
        broadcast shape of ``u`` and ``v`` (allocated when None), and returns
        ``out[0]``; ``out[1]`` holds the denominator.
        """
        if isinstance(u, float):
            if self.id == "psi1":
                return (u - v) / math.sqrt(u * u + v * v)
            return (u - v) / (u + v)
        if out is None:
            out = np.empty((2, *np.broadcast(u, v).shape))
        num, den = out[0, ...], out[1, ...]
        if self.id == "psi1":
            np.multiply(u, u, out=den)
            np.multiply(v, v, out=num)
            np.add(den, num, out=den)
            np.sqrt(den, out=den)
        else:
            np.add(u, v, out=den)
        np.subtract(u, v, out=num)
        return np.divide(num, den, out=num)

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

    def ratio_duu(self, u, v):
        """d^2/du^2 of :meth:`ratio` for u, v > 0."""
        if self.id == "psi1":
            return v * (v * v - 2.0 * u * u - 3.0 * u * v) / np.power(u * u + v * v, 2.5)
        return -4.0 * v / (u + v) ** 3


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


def psi_pair(kernel: PsiKernel, num_sqrt, den_sqrt, out=None, odd=None):
    """psi(sqrt(q'/q)) from the square roots u = sqrt(q'), v = sqrt(q).

    ``num_sqrt`` and ``den_sqrt`` are scalars or arrays that broadcast
    together; the result has their broadcast shape, and is a Python float
    when both are scalars.  Evaluating on the (u, v) pair keeps
    swap-antisymmetry exact in floating point.  The conventions are
    0/0 -> psi(1) = 0, inf/inf -> 0, a/0 and inf/a -> psi(+inf) = 1, and
    0/a and a/inf -> psi(0) = -1; infinite roots come from singular density
    representations, where only the comparison of u and v matters.

    One pass of :meth:`PsiKernel.ratio`, written into the optional
    ``(2, *shape)`` workspace ``out``, gives every value except where it
    returns NaN (0/0 and any infinite root) or, for a kernel whose ratio is
    not exact at a one-sided zero (:attr:`PsiKernel.ratio_exact_at_zero`),
    where a root is 0.  Both can happen only in the odd columns of
    :func:`_odd_columns`: the last-axis indices where some root is 0, inf,
    or below 2**-500 or above 2**500.  Only those columns are read again,
    and their NaN and zero-root entries are set from the sign of u - v;
    without odd columns, no floating-point exception needs silencing.
    ``odd`` passes columns the caller has already found and validated for a
    larger array the operands are slices of; without it they are computed
    here, and NaN or negative roots raise :class:`ContractViolationError`.

    Two scalar operands (floats, such as QUADPACK's nodes in
    :func:`check_assumption`, other numbers and 0-d arrays) skip numpy's
    array path and give the same bits: equal, zero and infinite roots take
    the sign of u - v, and every other pair calls the same
    :meth:`PsiKernel.ratio` on Python floats.
    """
    scalar = isinstance(num_sqrt, float) and isinstance(den_sqrt, float)
    if not scalar:
        u, v = np.asarray(num_sqrt, dtype=float), np.asarray(den_sqrt, dtype=float)
        scalar = u.ndim == 0 == v.ndim
    if scalar:
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
    if odd is None:
        odd = _odd_columns(u, v)
    if not odd.size:  # nothing to repair, no floating-point exception to silence
        return kernel.ratio(u, v, out)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        vals = kernel.ratio(u, v, out)
    # With every column odd, gathering them would copy the whole block.
    whole = odd.size == vals.shape[-1]
    got, u, v = ((vals, u, v) if whole else
                 (vals[..., odd], _columns(u, odd), _columns(v, odd)))
    fix = np.isnan(got)
    if not kernel.ratio_exact_at_zero:
        fix |= (u == 0.0) | (v == 0.0)
    np.putmask(got, fix, _sign(u, v))  # u and v broadcast to got's shape
    if not whole:
        vals[..., odd] = got
    return vals


def _columns(a, cols):
    """a's last-axis columns ``cols``; an axis of 1 (or none) broadcasts as is."""
    return a if a.ndim == 0 or a.shape[-1] == 1 else a[..., cols]


# Roots outside [2**-500, 2**500] are odd: 0, inf, and those whose squares
# can underflow to 0 (below about 2**-537) or overflow in psi1's u*u + v*v.
_LOW_ROOT, _HIGH_ROOT = 2.0 ** -500, 2.0 ** 500


def _odd_columns(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Last-axis indices of the broadcast of u and v where a root is odd.

    A root is odd when it is 0, inf, or so small or large that psi1's
    squares can underflow or overflow.  Only in odd columns can
    :meth:`PsiKernel.ratio` raise a floating-point exception, return NaN or
    miss the sign rule of :func:`psi_pair`.  Each operand is reduced on its
    own, never broadcast: first whole, which settles the common case of no
    odd column, then over all but its last axis.  NaN or negative roots
    raise :class:`ContractViolationError`.
    """
    u_lo = np.minimum.reduce(u, axis=None, initial=np.inf)
    v_lo = np.minimum.reduce(v, axis=None, initial=np.inf)
    if not (u_lo >= 0.0 and v_lo >= 0.0):  # NaN fails the comparison too
        raise ContractViolationError("density square roots must be nonnegative numbers")
    if (u_lo >= _LOW_ROOT and v_lo >= _LOW_ROOT
            and np.maximum.reduce(u, axis=None, initial=0.0) <= _HIGH_ROOT
            and np.maximum.reduce(v, axis=None, initial=0.0) <= _HIGH_ROOT):
        return np.empty(0, dtype=np.intp)
    lo = np.minimum(u.min(axis=tuple(range(u.ndim - 1)), initial=np.inf),
                    v.min(axis=tuple(range(v.ndim - 1)), initial=np.inf))
    hi = np.maximum(u.max(axis=tuple(range(u.ndim - 1)), initial=0.0),
                    v.max(axis=tuple(range(v.ndim - 1)), initial=0.0))
    return np.flatnonzero((lo < _LOW_ROOT) | (hi > _HIGH_ROOT))


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
