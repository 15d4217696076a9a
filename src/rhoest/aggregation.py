"""Estimator selection and convex aggregation over candidate densities.

Selection treats each candidate probability as a singleton model with
penalty kappa * weight.  Aggregation searches the simplex of mixture
weights for the unique saddle point of the pairwise comparison map
t(alpha, beta); the inner concave maximization runs Frank-Wolfe with away
steps (the linear oracle over the simplex is exact and dimension-free),
and every run is certified a posteriori instead of assuming convergence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .criterion import DensityFamily, Penalty, RhoFit, _criterion_rows, rho_estimate
from .densities import ProductDensity, Sample
from .errors import ContractViolationError, DegenerateCandidatesError
from .psi import PsiKernel, kernel_constants

__all__ = ["SimplexPoint", "CandidateSet", "InnerSolverConfig",
           "select_candidate", "t_mix", "inner_argmax", "saddle_point",
           "simplex_grid", "simplex_grid_array", "mixture_upsilon"]

CONDITION_NUMBER_THRESHOLD = 1e10


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


def _line_search(kernel, m, m_dir, d_sqrt, gamma_max):
    """Maximize the concave 1-D restriction by bisecting its derivative."""
    def deriv(g):
        mg = m + g * m_dir
        return float(np.dot(_mix_gradient_wrt_m(kernel, mg, d_sqrt), m_dir))

    if deriv(gamma_max) >= 0.0:
        return gamma_max
    lo, hi = 0.0, gamma_max
    if deriv(lo) <= 0.0:
        return 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if deriv(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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

        if fw_gap >= away_gap:
            direction = -beta.copy()
            direction[fw_j] += 1.0
            gamma_max = 1.0
        else:
            direction = beta.copy()
            direction[away_j] -= 1.0
            w = beta[away_j]
            if w >= 1.0 - 1e-15:
                break
            gamma_max = w / (1.0 - w)
        m_dir = direction @ P
        gamma = _line_search(kernel, m, m_dir, d_sqrt, gamma_max)
        if gamma <= 0.0:
            break
        beta = beta + gamma * direction
        beta = np.clip(beta, 0.0, None)
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
