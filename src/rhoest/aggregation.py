"""Estimator selection and convex aggregation over candidate densities.

Selection treats each candidate probability as a singleton model with
penalty kappa * weight.  Aggregation searches the simplex of mixture
weights for the unique saddle point of the pairwise comparison map
t(alpha, beta), and every run is certified a posteriori instead of
assuming convergence.  The inner concave maximization over beta starts at
alpha and takes active-set Newton steps on a face of the simplex, with the
N x N Hessian P diag(phi'') P^T; a Frank-Wolfe vertex step is the safeguard
when the Newton direction does not ascend.  Each step ends in a safeguarded
Newton search for the root of the line derivative, and the Frank-Wolfe gap
certifies the result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .criterion import DensityFamily, Penalty, RhoFit, _criterion_rows, _entry, rho_estimate
from .densities import Sample
from .errors import (Checked, ContractViolationError, DegenerateCandidatesError,
                     SolverError, _count, _each, _index, _instance, _number, _scale,
                     _weights)
from .psi import DEFAULT_KERNEL, PsiKernel

__all__ = ["SimplexPoint", "CandidateSet", "InnerSolverConfig",
           "select_candidate", "t_mix", "inner_argmax", "saddle_point",
           "simplex_grid", "simplex_grid_array", "mixture_upsilon"]

CONDITION_NUMBER_THRESHOLD = 1e10
# Most points of a simplex lattice that simplex_grid_array enumerates, an
# array of at most 2**18 x size floats; 4 weights at 100 steps make
# 176,851.
_MAX_LATTICE = 2**18
# Tolerance of the line-search step s in [0, 1]: float precision at s = 1,
# for a step that changes the mixture by as much as the mixture itself.
_STEP_XTOL = 1e-15
_MAX_LINE_STEPS = 100


@dataclass(frozen=True)
class SimplexPoint(Checked):
    weights: tuple
    rules = {"weights": _weights}

    def _check(self):
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ContractViolationError("simplex weights must sum to 1")

    def as_array(self):
        return np.asarray(self.weights)

    @staticmethod
    def vertex(j: int, size: int) -> "SimplexPoint":
        w = [0.0] * _count("size", size)
        w[_index("j", j, size)] = 1.0
        return SimplexPoint(tuple(w))


def _weights_of(cs, point, name):
    """The weights of ``point`` as an array, if it is a :class:`SimplexPoint`
    with one weight per candidate of ``cs``."""
    if not (isinstance(point, SimplexPoint) and len(point.weights) == cs.size):
        raise ContractViolationError(
            f"{name} must be a SimplexPoint of {cs.size} weights, one per candidate")
    return point.as_array()


class CandidateSet:
    """Candidate product densities evaluated at the sample.

    Stores the (N, n) matrix of per-coordinate density values, which is all
    the aggregation functions below read: the sample is chosen here, once.
    Coordinates must be strictly positive; linear independence is checked
    via the matrix condition number, but only enforced where the
    saddle-point theory needs it (see :func:`saddle_point`).
    """

    def __init__(self, densities, sample: Sample):
        _instance("sample", sample, Sample)
        densities = _each("densities", densities, _entry, least=1)
        values = np.stack([d.coord_values(sample) for d in densities])
        if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
            raise ContractViolationError(
                "candidate evaluation vectors must be strictly positive and finite")
        self.densities = densities
        self.values = values

    @property
    def size(self):
        return len(self.densities)

    def condition_number(self) -> float:
        if self.size > self.values.shape[1]:
            return float("inf")
        s = np.linalg.svd(self.values, compute_uv=False)
        return float("inf") if s[-1] == 0 else float(s[0] / s[-1])


def select_candidate(X: Sample, candidates, deltas,
                     kernel: PsiKernel | None = None) -> RhoFit:
    """Pick one candidate probability, each viewed as a singleton model.

    Penalties are kappa * delta_j; the weights must be finite, nonnegative
    and satisfy sum exp(-delta_j) <= 1.
    """
    kernel = _instance("kernel", kernel, PsiKernel, DEFAULT_KERNEL)
    candidates = _each("candidates", candidates, _entry, least=1)
    deltas = _weights("deltas", deltas)
    if len(deltas) != len(candidates):
        raise ContractViolationError("one weight per candidate required")
    if sum(math.exp(-d) for d in deltas) > 1.0 + 1e-12:
        raise ContractViolationError("sum of exp(-delta) exceeds 1")
    fam = DensityFamily(candidates)
    pen = Penalty({j: kernel.kappa * d for j, d in enumerate(deltas)})
    return rho_estimate(X, fam, pen, kernel)


def t_mix(cs: CandidateSet, alpha: SimplexPoint, beta: SimplexPoint,
          kernel: PsiKernel | None = None) -> float:
    """sum_i psi(sqrt(mix_beta(X_i) / mix_alpha(X_i))) over the sample of ``cs``;
    antisymmetric in (alpha, beta)."""
    _instance("cs", cs, CandidateSet)
    kernel = _instance("kernel", kernel, PsiKernel, DEFAULT_KERNEL)
    num = _weights_of(cs, beta, "beta") @ cs.values
    den = _weights_of(cs, alpha, "alpha") @ cs.values
    if np.any(den <= 0.0) or np.any(num < 0.0):
        raise ContractViolationError("mixture density vanished at a sample point")
    return float(_criterion_rows(np.sqrt(den)[np.newaxis, :],
                                 np.sqrt(num)[np.newaxis, :], 0.0, kernel)[0])


@dataclass(frozen=True)
class InnerSolverConfig(Checked):
    """Stop :func:`inner_argmax` at a Frank-Wolfe gap below ``tol``, or after
    ``max_iter`` steps."""

    tol: float = 1e-8
    max_iter: int = 5000
    rules = {"tol": _scale, "max_iter": _count}


_DEFAULT_INNER = InnerSolverConfig()


def _mix_derivatives(kernel, m, d_sqrt):
    """phi'(m) and phi''(m) of phi(m) = psi(sqrt(m)/v), v = d_sqrt, from one sqrt."""
    u = np.sqrt(m)
    du = kernel.ratio_du(u, d_sqrt)
    return du / (2.0 * u), (u * kernel.ratio_duu(u, d_sqrt) - du) / (4.0 * u * m)


def _line_search(kernel, m, m_end, d_sqrt, grad_m, hess_m):
    """The step s in [0, 1] that maximizes t(alpha, .) from mixture m to m_end.

    t is concave along the segment, so s is an end point or the root of the
    slope g'(s) = phi'(m_s) . (m_end - m), where m_s = (1 - s) m + s m_end
    stays positive at s = 1.  Newton steps on g' start at s = 0 from
    phi' = ``grad_m`` and phi'' = ``hess_m``; one that leaves the bracket kept
    by the sign of g', or is not half as long as the step before last,
    bisects the bracket instead.
    """
    m_dir = m_end - m

    def slope(s, grad):
        value = float(np.dot(grad, m_dir))
        if not math.isfinite(value):
            raise SolverError(f"line-search derivative is {value} at step {s}")
        return value

    if slope(1.0, _mix_derivatives(kernel, m_end, d_sqrt)[0]) >= 0.0:
        return 1.0
    s, lo, hi, step, before = 0.0, 0.0, 1.0, 1.0, 1.0
    g, h = slope(s, grad_m), float(np.dot(hess_m, m_dir * m_dir))
    if g <= 0.0:
        return 0.0
    # An error e in s moves the mixture by e * m_dir, so a step much shorter
    # than the mixture needs s less precisely.  Near the root of such a
    # step the derivative is rounding noise, which Newton would chase.
    xtol = _STEP_XTOL / min(1.0, float(np.max(np.abs(m_dir) / m)))
    for _ in range(_MAX_LINE_STEPS):
        newton = s - g / h if h < 0.0 else math.inf  # h is NaN or 0 at worst
        if not (lo <= newton <= hi and abs(newton - s) <= 0.5 * before):
            newton = 0.5 * (lo + hi)
        step, before, s = abs(newton - s), step, newton
        if step <= xtol:  # also at a root found exactly: g = 0, so newton = s
            return s
        grad, hess = _mix_derivatives(kernel, (1.0 - s) * m + s * m_end, d_sqrt)
        g, h = slope(s, grad), float(np.dot(hess, m_dir * m_dir))
        lo, hi = (s, hi) if g > 0.0 else (lo, s)
    raise SolverError(f"line search did not converge in {_MAX_LINE_STEPS} steps")


def _newton_end_point(P, beta, grad, hess_m, fw_j):
    """End point of the Newton step on the face of supp(beta) plus ``fw_j``.

    Maximizes the quadratic model of t(alpha, .) on that face through the
    bordered KKT system [H_AA 1; 1^T 0], H = P diag(phi'') P^T, and cuts the
    step where a weight reaches 0; those weights are set to exactly 0, so
    they leave the face.  An exactly singular system takes its least-squares
    step.  Returns None when the direction does not ascend or a zero weight
    blocks the step at once.
    """
    on_face = beta > 0.0
    on_face[fw_j] = True
    P_A = P[on_face]
    k = len(P_A)
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = (P_A * hess_m) @ P_A.T
    kkt[k, k] = 0.0
    rhs = np.append(-grad[on_face], 0.0)
    try:
        solution = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:  # e.g. two equal candidates on the face
        solution = np.linalg.lstsq(kkt, rhs)[0]
    step = np.zeros_like(beta)
    step[on_face] = solution[:k]
    if not 0.0 < float(grad @ step) < math.inf:  # NaN and inf fail too
        return None
    ratios = np.divide(beta, -step, out=np.full_like(beta, math.inf), where=step < 0.0)
    reach = min(1.0, float(ratios.min()))
    if reach <= 0.0:
        return None
    end = np.maximum(beta + reach * step, 0.0)
    end[ratios <= reach] = 0.0
    return end / end.sum()


def inner_argmax(cs: CandidateSet, alpha: SimplexPoint,
                 kernel: PsiKernel | None = None,
                 inner: InnerSolverConfig | None = None) -> SimplexPoint:
    """argmax over the simplex of beta -> t(alpha, beta).

    Starts at beta = alpha, where t vanishes, so the outer iteration of
    :func:`saddle_point` warm-starts every solve at the previous answer.
    Each step is an active-set Newton step on the face spanned by the
    support of beta and the Frank-Wolfe vertex (the best vertex of the
    linearization), cut at the simplex boundary.  When the Newton direction
    does not ascend, is blocked at once by a zero weight, or its line search
    stalls, a Frank-Wolfe step toward that vertex is taken instead.  Every step ends
    in :func:`_line_search`.  Stops when the Frank-Wolfe gap, which bounds
    max t(alpha, .) - t(alpha, beta) from above, drops below ``inner.tol``.
    """
    _instance("cs", cs, CandidateSet)
    kernel = _instance("kernel", kernel, PsiKernel, DEFAULT_KERNEL)
    inner = _instance("inner", inner, InnerSolverConfig, _DEFAULT_INNER)
    P = cs.values
    beta = _weights_of(cs, alpha, "alpha").copy()
    m = beta @ P
    d_sqrt = np.sqrt(m)
    for _ in range(inner.max_iter):
        grad_m, hess_m = _mix_derivatives(kernel, m, d_sqrt)
        grad = P @ grad_m
        fw_j = int(np.argmax(grad))
        if float(grad[fw_j] - grad @ beta) < inner.tol:
            break
        end = _newton_end_point(P, beta, grad, hess_m, fw_j)
        s = 0.0 if end is None else _line_search(kernel, m, end @ P, d_sqrt, grad_m, hess_m)
        if s <= 0.0:
            end = np.zeros_like(beta)
            end[fw_j] = 1.0
            s = _line_search(kernel, m, P[fw_j], d_sqrt, grad_m, hess_m)
            if s <= 0.0:
                break
        beta = (1.0 - s) * beta + s * end
        beta /= beta.sum()
        m = beta @ P
    return SimplexPoint(tuple(beta))


def saddle_point(cs: CandidateSet, kernel: PsiKernel | None = None,
                 eps: float = 1e-4, max_outer: int = 1000,
                 inner: InnerSolverConfig | None = None) -> dict:
    """Iterate alpha <- argmax_beta t(alpha, beta) until t drops below eps.

    Returns the final weights together with the certificate
    max_beta t(alpha, beta); at the exact saddle the certificate is 0 and
    the mixture's criterion value over the whole simplex vanishes.  Raises
    on numerically dependent candidates; exhaustion of ``max_outer`` is
    reported, never silently truncated.
    """
    _instance("cs", cs, CandidateSet)
    kernel = _instance("kernel", kernel, PsiKernel, DEFAULT_KERNEL)
    inner = _instance("inner", inner, InnerSolverConfig, _DEFAULT_INNER)
    if not 0.0 < _number("eps", eps) <= 1.0:
        raise ContractViolationError("eps must lie in (0, 1]")
    _count("max_outer", max_outer)
    cond = cs.condition_number()
    if cond > CONDITION_NUMBER_THRESHOLD:
        raise DegenerateCandidatesError(
            f"candidate matrix condition number {cond:.3e} exceeds "
            f"{CONDITION_NUMBER_THRESHOLD:.0e}; prune near-dependent candidates")
    if cs.size == 1:
        return {"alpha_star": SimplexPoint((1.0,)), "certificate": 0.0,
                "iterations": 0, "converged": True, "condition_number": cond}

    alpha = SimplexPoint(tuple(np.full(cs.size, 1.0 / cs.size)))
    certificate = float("inf")
    iterations = 0
    for iterations in range(1, max_outer + 1):
        beta = inner_argmax(cs, alpha, kernel, inner)
        certificate = t_mix(cs, alpha, beta, kernel)
        if certificate < eps:
            break
        alpha = beta
    return {
        "alpha_star": alpha,
        "certificate": certificate,
        "iterations": iterations,
        "converged": certificate < eps,
        "condition_number": cond,
    }


def simplex_grid(size: int, steps: int):
    """All simplex lattice points with coordinates multiples of 1/steps."""
    return (SimplexPoint(tuple(row)) for row in simplex_grid_array(size, steps))


def _lattice_size(size: int, steps: int) -> int:
    """The number of points of ``simplex_grid_array(size, steps)``."""
    return math.comb(steps + size - 1, size - 1)


def simplex_grid_array(size: int, steps: int) -> np.ndarray:
    """The lattice of :func:`simplex_grid` as rows, in lexicographic cut order.

    A lattice of more than ``_MAX_LATTICE`` points is refused before any
    point is enumerated."""
    _count("steps", steps)
    if _count("size", size) == 1:
        return np.ones((1, 1))
    if _lattice_size(size, steps) > _MAX_LATTICE:
        raise ContractViolationError(
            f"simplex lattice of {size} weights at {steps} steps has more than "
            f"{_MAX_LATTICE} points")
    cuts = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(steps + size - 1), size - 1)),
        dtype=np.int64).reshape(-1, size - 1)
    edges = np.concatenate([np.full((len(cuts), 1), -1), cuts,
                            np.full((len(cuts), 1), steps + size - 1)], axis=1)
    return (np.diff(edges, axis=1) - 1) / steps


def mixture_upsilon(cs: CandidateSet, alpha: SimplexPoint, grid_steps: int,
                    kernel: PsiKernel | None = None) -> float:
    """Criterion value of the alpha-mixture against a simplex-lattice family."""
    _instance("cs", cs, CandidateSet)
    kernel = _instance("kernel", kernel, PsiKernel, DEFAULT_KERNEL)
    den_sqrt = np.sqrt(_weights_of(cs, alpha, "alpha") @ cs.values)[np.newaxis, :]
    G = simplex_grid_array(cs.size, _count("grid_steps", grid_steps))
    return float(_criterion_rows(den_sqrt, np.sqrt(G @ cs.values), 0.0, kernel)[0])
