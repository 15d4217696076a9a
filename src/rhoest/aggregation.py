"""Estimator selection and convex aggregation over candidate densities.

Selection treats each candidate probability as a singleton model with
penalty kappa * weight.  Aggregation searches the simplex of mixture
weights for the unique saddle point of the pairwise comparison map
t(alpha, beta), and every run is certified a posteriori instead of
assuming convergence.  The inner concave maximization runs Frank-Wolfe
with away steps (the linear oracle over the simplex is exact and
dimension-free) and a bracketed root-find of the line derivative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .criterion import DensityFamily, Penalty, RhoFit, _criterion_rows, rho_estimate
from .densities import ProductDensity, Sample
from .errors import ContractViolationError, DegenerateCandidatesError, SolverError
from .psi import PsiKernel, kernel_constants

__all__ = ["SimplexPoint", "CandidateSet", "InnerSolverConfig",
           "select_candidate", "t_mix", "inner_argmax", "saddle_point",
           "simplex_grid", "simplex_grid_array", "mixture_upsilon"]

CONDITION_NUMBER_THRESHOLD = 1e10
# Absolute tolerance of the line-search step s in [0, 1]: float precision at s = 1.
_STEP_XTOL = 1e-15


@dataclass(frozen=True)
class SimplexPoint:
    weights: tuple

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if any(x < 0 for x in w):
            raise ContractViolationError("simplex weights must be nonnegative")
        if abs(sum(w) - 1.0) > 1e-12:
            raise ContractViolationError("simplex weights must sum to 1")
        object.__setattr__(self, "weights", w)

    def as_array(self):
        return np.asarray(self.weights)

    @staticmethod
    def vertex(j: int, size: int) -> "SimplexPoint":
        w = [0.0] * size
        w[j] = 1.0
        return SimplexPoint(tuple(w))


class CandidateSet:
    """Candidate product densities evaluated at the sample.

    Stores the (N, n) matrix of per-coordinate density values.  Coordinates
    must be strictly positive; linear independence is checked via the matrix
    condition number, but only enforced where the saddle-point theory needs
    it (see :func:`saddle_point`).
    """

    def __init__(self, densities, sample: Sample):
        densities = list(densities)
        if not densities:
            raise ContractViolationError("need at least one candidate")
        values = np.stack([d.coord_values(sample) for d in densities])
        if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
            raise ContractViolationError(
                "candidate evaluation vectors must be strictly positive and finite")
        self.densities = densities
        self.sample = sample
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

    Penalties are kappa * delta_j; the weights must satisfy
    sum exp(-delta_j) <= 1.
    """
    kernel = kernel or kernel_constants()
    candidates = list(candidates)
    deltas = [float(d) for d in deltas]
    if len(deltas) != len(candidates):
        raise ContractViolationError("one weight per candidate required")
    if sum(math.exp(-d) for d in deltas) > 1.0 + 1e-12:
        raise ContractViolationError("sum of exp(-delta) exceeds 1")
    fam = DensityFamily(candidates)
    pen = Penalty({j: kernel.kappa * d for j, d in enumerate(deltas)})
    return rho_estimate(X, fam, pen, kernel)


def t_mix(X: Sample, cs: CandidateSet, alpha: SimplexPoint, beta: SimplexPoint,
          kernel: PsiKernel | None = None) -> float:
    """sum_i psi(sqrt(mix_beta(X_i) / mix_alpha(X_i))); antisymmetric in (alpha, beta)."""
    kernel = kernel or kernel_constants()
    num = beta.as_array() @ cs.values
    den = alpha.as_array() @ cs.values
    if np.any(den <= 0.0) or np.any(num < 0.0):
        raise ContractViolationError("mixture density vanished at a sample point")
    return float(_criterion_rows(np.sqrt(den)[np.newaxis, :],
                                 np.sqrt(num)[np.newaxis, :], 0.0, kernel)[0])


@dataclass(frozen=True)
class InnerSolverConfig:
    tol: float = 1e-8
    max_iter: int = 5000


def _mix_gradient_wrt_m(kernel, m, d_sqrt):
    # d/dm of psi(sqrt(m)/v) with v = d_sqrt, expressed through u = sqrt(m).
    u = np.sqrt(m)
    return kernel.ratio_du(u, d_sqrt) / (2.0 * u)


def _line_search(kernel, m, m_end, d_sqrt):
    """The step s in [0, 1] that maximizes t(alpha, .) from mixture m to m_end.

    t is concave along the segment, so s is an end point or the root of the
    derivative, which Brent's method finds on the bracket to float precision.
    Evaluating (1 - s) m + s m_end keeps the mixture positive at s = 1.
    """
    m_dir = m_end - m

    def deriv(s):
        mix = (1.0 - s) * m + s * m_end
        value = float(np.dot(_mix_gradient_wrt_m(kernel, mix, d_sqrt), m_dir))
        if not math.isfinite(value):
            raise SolverError(f"line-search derivative is {value} at step {s}")
        return value

    ends = {1.0: deriv(1.0)}
    if ends[1.0] >= 0.0:
        return 1.0
    ends[0.0] = deriv(0.0)
    if ends[0.0] <= 0.0:
        return 0.0
    # brentq evaluates both ends again; hand it the values already known.
    s, info = optimize.brentq(lambda s: ends[s] if s in ends else deriv(s), 0.0, 1.0,
                              xtol=_STEP_XTOL, full_output=True, disp=False)
    if not info.converged:
        raise SolverError(f"line search did not converge: {info.flag}")
    return s


def inner_argmax(X: Sample, cs: CandidateSet, alpha: SimplexPoint,
                 kernel: PsiKernel | None = None,
                 inner: InnerSolverConfig | None = None) -> SimplexPoint:
    """argmax over the simplex of beta -> t(alpha, beta).

    Frank-Wolfe with away steps; the best-vertex linear oracle is exact on
    the simplex.  Stops when the Frank-Wolfe gap drops below ``inner.tol``.
    """
    kernel = kernel or kernel_constants()
    inner = inner or InnerSolverConfig()
    P = cs.values
    N = cs.size
    d_sqrt = np.sqrt(alpha.as_array() @ P)

    beta = np.full(N, 1.0 / N)
    m = beta @ P
    for _ in range(inner.max_iter):
        grad_m = _mix_gradient_wrt_m(kernel, m, d_sqrt)
        grad = P @ grad_m
        g_dot_beta = float(grad @ beta)

        fw_j = int(np.argmax(grad))
        fw_gap = float(grad[fw_j]) - g_dot_beta
        if fw_gap < inner.tol:
            break

        active = np.flatnonzero(beta > 1e-15)
        away_j = int(active[np.argmin(grad[active])])
        away_gap = g_dot_beta - float(grad[away_j])

        # Both steps move toward an end point on the simplex boundary: the
        # Frank-Wolfe vertex, or beta with the away vertex's weight removed.
        if fw_gap >= away_gap:
            end = np.zeros(N)
            end[fw_j] = 1.0
        else:
            w = beta[away_j]
            if w >= 1.0 - 1e-15:
                break
            end = beta / (1.0 - w)
            end[away_j] = 0.0
        s = _line_search(kernel, m, end @ P, d_sqrt)
        if s <= 0.0:
            break
        beta = (1.0 - s) * beta + s * end
        beta /= beta.sum()
        m = beta @ P
    return SimplexPoint(tuple(beta))


def saddle_point(X: Sample, cs: CandidateSet, kernel: PsiKernel | None = None,
                 eps: float = 1e-4, max_outer: int = 1000,
                 inner: InnerSolverConfig | None = None) -> dict:
    """Iterate alpha <- argmax_beta t(alpha, beta) until t drops below eps.

    Returns the final weights together with the certificate
    max_beta t(alpha, beta); at the exact saddle the certificate is 0 and
    the mixture's criterion value over the whole simplex vanishes.  Raises
    on numerically dependent candidates; exhaustion of ``max_outer`` is
    reported, never silently truncated.
    """
    kernel = kernel or kernel_constants()
    if not 0.0 < eps <= 1.0:
        raise ContractViolationError("eps must lie in (0, 1]")
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
        beta = inner_argmax(X, cs, alpha, kernel, inner)
        certificate = t_mix(X, cs, alpha, beta, kernel)
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
    for row in simplex_grid_array(size, steps):
        yield SimplexPoint(tuple(row))


def simplex_grid_array(size: int, steps: int) -> np.ndarray:
    """The lattice of :func:`simplex_grid` as rows, in lexicographic cut order."""
    if size == 1:
        return np.ones((1, 1))
    cuts = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(steps + size - 1), size - 1)),
        dtype=np.int64).reshape(-1, size - 1)
    edges = np.concatenate([np.full((len(cuts), 1), -1), cuts,
                            np.full((len(cuts), 1), steps + size - 1)], axis=1)
    return (np.diff(edges, axis=1) - 1) / steps


def mixture_upsilon(X: Sample, cs: CandidateSet, alpha: SimplexPoint,
                    grid_steps: int, kernel: PsiKernel | None = None) -> float:
    """Criterion value of the alpha-mixture against a simplex-lattice family."""
    kernel = kernel or kernel_constants()
    G = simplex_grid_array(cs.size, grid_steps)
    den_sqrt = np.sqrt(alpha.as_array() @ cs.values)[np.newaxis, :]
    return float(_criterion_rows(den_sqrt, np.sqrt(G @ cs.values), 0.0, kernel)[0])
