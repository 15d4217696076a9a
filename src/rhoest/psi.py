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

from .densities import Density1D, _density, hellinger_sq, integrate_on_supports
from .errors import ContractViolationError, _instance, _shown
from .quadrature import FINE_QUAD, QuadratureSpec

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
        if not (isinstance(self.id, str) and self.id in ("psi1", "psi2")):
            raise ContractViolationError(f"kernel id must be psi1 or psi2, got {_shown(self.id)}")
        if not (self.a0 >= 1.0 >= self.a1 > 0.0):
            raise ContractViolationError("need a0 >= 1 >= a1 > 0")
        if not self.a2_sq >= max(1.0, 6.0 * self.a1):
            raise ContractViolationError("need a2^2 >= max(1, 6 a1)")
        # The float64 range of _ROOTS, which psi_pair's scalar path reads on
        # every quadrature node: an attribute, not a lookup per call.
        object.__setattr__(self, "_exact", _ROOTS[self.id, np.float64][:2])

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
        """psi(u / v) on the pair (u, v), without :func:`psi_pair`'s conventions.

        On a float ``u`` it computes in Python floats, which give the same
        bits as numpy.  On arrays it writes into ``out``, a ``(2, *shape)``
        workspace for the broadcast shape of ``u`` and ``v`` (allocated when
        None), and returns ``out[0]``; ``out[1]`` holds the denominator.
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

    def screen_operands(self, roots):
        """The float32 operands of :meth:`screen_sums` for an (N, m) root
        matrix: a (k, N, m') array, m' = ``_CHUNK`` * ceil(m / ``_CHUNK``),
        holding the roots rounded to float32 and, for psi1, their float32
        squares, made once here, not per block.  Its last m' - m columns
        pad the roots with 1.0, where every pair's psi1 value is exactly
        +0.0 and psi2's term is exactly 1/2, so they change no sum."""
        m = roots.shape[-1]
        ops = np.empty((1 + (self.id == "psi1"), *roots.shape[:-1],
                        -(-m // _CHUNK) * _CHUNK), np.float32)
        ops[0, ..., :m] = roots
        ops[0, ..., m:] = 1.0
        if self.id == "psi1":
            np.multiply(ops[0], ops[0], out=ops[1])
        return ops

    def screen_sums(self, u, v, work, sums):
        """Write into ``sums`` the float64 sums over the last axis of psi on
        the float32 operands ``u`` and ``v`` of :meth:`screen_operands`,
        sliced and broadcasting to (k, h, w, m'); ``work`` is a C-contiguous
        float32 (2, h, w, m') workspace and ``sums`` an (h, w) float64 array.

        psi1 sums (u - v) / sqrt(u*u + v*v) over the squares made once, in
        the bits of :meth:`ratio`.  psi2 sums t = u / (u + v) in [0, 1] and
        then takes 2 * sum - m', since psi2 = 2t - 1: one pass fewer per
        value, and doubling is exact; a padded column's t of 1/2 cancels its
        share of m'.  Both sum their float32 terms in two steps: each run of
        ``_CHUNK`` adjacent terms in float32, by one matrix-vector product
        with a vector of ones (a BLAS call that releases the GIL, into the
        workspace row that the terms no longer need), and then those
        partial sums in float64.  On a stand-in t can underflow towards its
        limit 0 (see ``_ROOTS``), so the caller runs this under
        ``np.errstate(under="ignore")``.
        """
        if self.id == "psi1":
            num, den = work
            np.subtract(u[0], v[0], out=num)
            np.add(u[1], v[1], out=den)
            np.sqrt(den, out=den)
            _chunk_sums(np.divide(num, den, out=num), den, sums)
            return
        t = work[0]
        np.add(u[0], v[0], out=t)
        _chunk_sums(np.divide(u[0], t, out=t), work[1], sums)
        np.multiply(sums, 2.0, out=sums)
        np.subtract(sums, t.shape[-1], out=sums)

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


# The screen's float32 run length: PsiKernel.screen_sums sums each run of
# _CHUNK adjacent terms in float32, against _ONES, before the float64 sum.
_CHUNK = 16
_ONES = np.ones(_CHUNK, np.float32)
_ONES.setflags(write=False)


def _chunk_sums(terms, partials, sums):
    """Write into ``sums`` the float64 sums over the last axis of the
    C-contiguous float32 ``terms``, whose length is a multiple of ``_CHUNK``:
    each run of ``_CHUNK`` terms summed in float32 into ``partials``, a
    float32 array of at least ``terms.size // _CHUNK`` contiguous values
    that does not overlap ``terms``, then the runs' sums in float64."""
    runs = partials.reshape(-1)[:terms.size // _CHUNK]
    np.dot(terms.reshape(-1, _CHUNK), _ONES, out=runs)
    np.add.reduce(runs.reshape(*terms.shape[:-1], -1), axis=-1, dtype=np.float64,
                  out=sums)


# Per kernel and precision: the range [lo, hi] of finite nonzero roots on
# which one unscaled ratio pass gives psi_pair's bits, and the stand-ins for
# zero and infinite roots.  The stand-ins lie a factor of 2**32 or more
# beyond the range, so in that precision the ratio of a stand-in is exactly
# -1 or +1 against a root in the range or the other stand-in, and +0.0
# against an equal one, with no floating-point exception: psi1's squares of
# the stand-ins stay normal and finite, and psi2 takes no squares.  The
# float64 rows serve psi_pair, the float32 rows the criterion's screen.
# The screen's psi2 sums the term u / (u + v) instead (see
# PsiKernel.screen_sums), which on a stand-in is exactly 0, 1/2 or 1, or
# within 2**-60 of 0.  It can underflow towards its limit 0, where a zero's
# stand-in meets a root above 2**6 or an infinity's stand-in one below
# 2**-6, and the screen silences that exception alone.
_ROOTS = {("psi1", np.float64): (2.0 ** -450, 2.0 ** 450, 2.0 ** -511, 2.0 ** 511),
          ("psi2", np.float64): (2.0 ** -540, 2.0 ** 940, 2.0 ** -600, 2.0 ** 1000),
          ("psi1", np.float32): (2.0 ** -30, 2.0 ** 30, 2.0 ** -62, 2.0 ** 62),
          ("psi2", np.float32): (2.0 ** -60, 2.0 ** 60, 2.0 ** -120, 2.0 ** 120)}


_KERNELS = {
    "psi1": PsiKernel("psi1", a0=4.97, a1=0.083, a2_sq=3.0 + 2.0 * math.sqrt(2.0)),
    "psi2": PsiKernel("psi2", a0=4.0, a1=3.0 / 8.0, a2_sq=3.0 * math.sqrt(2.0)),
}

DEFAULT_KERNEL_ID = "psi2"
DEFAULT_KERNEL = _KERNELS[DEFAULT_KERNEL_ID]  # of every kernel argument with a default


def kernel_constants(kernel_id: str = DEFAULT_KERNEL_ID) -> PsiKernel:
    if not (isinstance(kernel_id, str) and kernel_id in _KERNELS):
        raise ContractViolationError(
            f"unknown kernel {_shown(kernel_id)}; choose from {sorted(_KERNELS)}")
    return _KERNELS[kernel_id]


def eval_psi(kernel: PsiKernel, x):
    """psi(x) for x in [0, +inf]; psi(+inf) = 1."""
    return psi_pair(kernel, x, 1.0)


def psi_pair(kernel: PsiKernel, num_sqrt, den_sqrt, out=None, scaled=None):
    """psi(sqrt(q'/q)) from the square roots u = sqrt(q'), v = sqrt(q).

    ``num_sqrt`` and ``den_sqrt`` are scalars or arrays that broadcast
    together; the result has their broadcast shape, and is a Python float
    when both are scalars.  Evaluating on the (u, v) pair keeps
    swap-antisymmetry exact in floating point.  The conventions are
    0/0 -> psi(1) = 0, inf/inf -> 0, a/0 and inf/a -> psi(+inf) = 1, and
    0/a and a/inf -> psi(0) = -1; infinite roots come from singular density
    representations, where only the comparison of u and v matters.

    One rule gives them all.  A pair is computed by :meth:`PsiKernel.ratio`
    on both roots scaled by the power of two that brings the larger into
    [0.5, 1), where no square or sum can under- or overflow; a pair that is
    still NaN (both roots 0, or one infinite) takes the sign of u - v.  The
    kernel's float64 row of :data:`_ROOTS` gives its exact range,
    [2**-450, 2**450] for psi1 and [2**-540, 2**940] for psi2 (which covers
    the root of every positive float pdf value): on a pair with both roots
    inside it the scaling changes no bit, so one unscaled pass of the ratio,
    written into the optional ``(2, *shape)`` workspace ``out``, gives every
    column but the odd ones, where some root is outside the range.

    Most odd columns need no scaling either.  :func:`_settle` finds them
    once per call: a *settled* column holds no finite nonzero root outside
    the exact range, and the same unscaled pass on the row's stand-in roots
    for its zeros and infinities gives the rule's bits, with no
    floating-point exception.  Only the pairs of the remaining *scaled*
    columns are computed again, on scaled roots.  ``scaled`` passes such
    columns for operands that a caller has already settled, as slices of
    arrays that span the last axis and were settled whole; without it, the
    operands are broadcast together and settled here, and NaN or negative
    roots raise :class:`ContractViolationError`, as does a ``kernel`` that
    is not a :class:`PsiKernel` (a caller passing ``scaled`` checked both).

    Two scalar operands (floats, such as QUADPACK's nodes in
    :func:`check_assumption`, other numbers and 0-d arrays) skip numpy's
    array path and give the same bits: equal, zero and infinite roots take
    the sign of u - v, and every other pair calls the same
    :meth:`PsiKernel.ratio` on Python floats, scaled by the same rule when a
    root lies outside the kernel's exact range.
    """
    # The test inline, since quadrature calls the scalar path once per node.
    if scaled is None and not isinstance(kernel, PsiKernel):
        _instance("kernel", kernel, PsiKernel)
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
        lo, hi = kernel._exact
        if not (lo <= u <= hi and lo <= v <= hi):
            e = math.frexp(max(u, v))[1]
            u, v = math.ldexp(u, -e), math.ldexp(v, -e)
        return kernel.ratio(u, v)
    su, sv = u, v
    if scaled is None:
        u, v = np.broadcast_arrays(u, v)
        su, sv, scaled = _settle(kernel, u, v)
    if not scaled.size:  # nothing to rescale, no floating-point exception to silence
        return kernel.ratio(su, sv, out)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        vals = kernel.ratio(su, sv, out)
        u, v = u[..., scaled], v[..., scaled]
        # ldexp, since 2.0**e overflows for subnormal roots.
        e = -np.frexp(np.maximum(u, v))[1]
        got = kernel.ratio(np.ldexp(u, e), np.ldexp(v, e))
    np.putmask(got, np.isnan(got), _sign(u, v))
    vals[..., scaled] = got
    return vals


def _settle(kernel: PsiKernel, u: np.ndarray, v: np.ndarray, dtype=np.float64):
    """(u', v', scaled): the roots with stand-ins, and the columns to rescale.

    The one classifier of roots, against the ``(kernel.id, dtype)`` row of
    :data:`_ROOTS`.  u and v are arrays of at least one axis whose last
    axes have the same length: the criterion's (K, n) and (J, n) root
    matrices, or :func:`psi_pair`'s operands broadcast together.  NaN and
    negative roots raise :class:`ContractViolationError`.  A column (a
    last-axis index) is *odd* when it holds a root outside the row's
    [lo, hi]: 0, inf, or a finite root too small or too large.  An odd
    column is *scaled* when one of its finite nonzero roots is outside
    [lo, hi], and *settled* otherwise.  Each operand is reduced on its own,
    and once when the square criterion passes one matrix as both: first
    whole, which settles the common case of no odd column, then over all
    but its last axis.

    Without settled columns, u and v are returned as they are.  Otherwise u'
    and v' are new ``dtype`` arrays with every zero and infinite root
    replaced by the row's stand-ins, so one unscaled :meth:`PsiKernel.ratio`
    pass on them gives :func:`psi_pair`'s bits everywhere but in the scaled
    columns.  There a float64 copy keeps its own roots, for psi_pair to
    rescale; a float32 copy, whose scaled columns the screen sums in
    float64 instead, holds them clipped to its stand-ins.
    """
    lo, hi, zero, inf = _ROOTS[kernel.id, dtype]
    operands = (u,) if v is u else (u, v)
    lows = [np.minimum.reduce(a, axis=None, initial=np.inf) for a in operands]
    if not all(low >= 0.0 for low in lows):  # NaN fails the comparison too
        raise ContractViolationError("density square roots must be nonnegative numbers")
    if min(lows) >= lo and max(np.maximum.reduce(a, axis=None, initial=0.0)
                               for a in operands) <= hi:
        return u, v, np.empty(0, dtype=np.intp)
    odd = False
    for a in operands:
        axes = tuple(range(a.ndim - 1))
        odd = odd | ((a.min(axis=axes, initial=np.inf) < lo)
                     | (a.max(axis=axes, initial=0.0) > hi))
    odd = np.flatnonzero(odd)

    def outside(a):
        # Per odd column: does a finite nonzero root lie outside [lo, hi]?
        a = a[..., odd]
        out = ((a > 0.0) & (a < lo)) | ((a > hi) & (a < np.inf))
        return out.any(axis=tuple(range(a.ndim - 1)))

    out = outside(u)
    if v is not u:  # the square criterion passes one matrix twice
        out = out | outside(v)
    scaled = odd[out]
    if scaled.size == odd.size:
        return u, v, scaled

    def stand_ins(a):
        # The clip turns 0 and inf into the stand-ins, and moves the scaled
        # columns' out-of-range roots too, so a float64 copy puts those
        # columns back.
        s = np.clip(a, zero, inf, out=np.empty(a.shape, dtype))
        if dtype is np.float64 and scaled.size:
            s[..., scaled] = a[..., scaled]
        return s

    su = stand_ins(u)
    return su, su if v is u else stand_ins(v), scaled


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
    QUADPACK passes one float node at a time, and every kind's pdf and
    :func:`psi_pair` take their float paths on it, with the same bits as on
    arrays.  Returns the four sides; ``pass`` requires lhs <= rhs +
    tolerance for both.
    """
    _instance("kernel", kernel, PsiKernel)
    for name, d in (("q", q), ("qp", qp), ("r", r)):
        _density(name, d)
    quad = _instance("quad", quad, QuadratureSpec, FINE_QUAD)
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
