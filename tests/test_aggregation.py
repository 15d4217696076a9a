import math
from types import SimpleNamespace

import numpy as np
import pytest

from rhoest import (Cauchy, CandidateSet, ContractViolationError, Gaussian,
                    InnerSolverConfig, Laplace, ProductDensity, Sample,
                    SimplexPoint, SolverError, aggregation, inner_argmax,
                    kernel_constants, mixture_upsilon, saddle_point,
                    select_candidate, simplex_grid, t_mix)
from rhoest.aggregation import _line_search, simplex_grid_array
from rhoest.errors import DegenerateCandidatesError

K1 = kernel_constants("psi1")
K2 = kernel_constants("psi2")


def gaussian_candidates(means, X):
    return CandidateSet([ProductDensity(iid=Gaussian(m, 1), n=X.n)
                         for m in means], X)


def face_case(seed, n=500):
    """Six candidates fitted to a mixture of the first two: the saddle point
    lies on a face of the simplex, and away steps run to a vertex."""
    rng = np.random.default_rng([seed, seed])
    w = rng.uniform(0.25, 0.75)
    left = rng.uniform(0.0, 1.0, n) < w
    X = Sample(np.where(left, rng.normal(-1.0, 1.0, n), rng.normal(1.5, 0.7, n)))
    marginals = [Gaussian(-1.0, 1.0), Gaussian(1.5, 0.7), Cauchy(0.0, 2.0),
                 Laplace(0.0, 1.0), Gaussian(0.0, 2.0), Gaussian(1.0, 1.0)]
    return X, CandidateSet([ProductDensity(iid=d, n=n) for d in marginals], X)


def bisection_line_search(kernel, m, m_dir, d_sqrt, gamma_max):
    """The fixed 80-step bisection of the derivative, kept as an oracle."""
    def deriv(g):
        u = np.sqrt(m + g * m_dir)
        return float(np.dot(kernel.ratio_du(u, d_sqrt) / (2.0 * u), m_dir))

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


def golden_section_argmax(fn, lo, hi, tol=1e-10):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


class TestSimplexPoint:
    def test_validation(self):
        SimplexPoint((0.25, 0.75))
        with pytest.raises(ContractViolationError):
            SimplexPoint((0.5, 0.6))
        with pytest.raises(ContractViolationError):
            SimplexPoint((-0.1, 1.1))

    def test_vertex(self):
        v = SimplexPoint.vertex(1, 3)
        assert v.weights == (0.0, 1.0, 0.0)

    def test_grid_covers_simplex(self):
        pts = list(simplex_grid(3, 4))
        assert len(pts) == 15    # C(4+2, 2)
        arr = simplex_grid_array(3, 4)
        assert arr.shape == (15, 3)
        assert np.allclose(arr.sum(axis=1), 1.0)


class TestCandidateSet:
    def test_positive_values_required(self):
        X = Sample(np.array([0.0, 10.0]))
        from rhoest import Uniform
        with pytest.raises(ContractViolationError):
            CandidateSet([ProductDensity(iid=Uniform(0, 1), n=2)], X)

    def test_condition_number_of_dependent_rows(self):
        X = Sample(np.array([0.0, 1.0]))
        d = ProductDensity(iid=Gaussian(0, 1), n=2)
        cs = CandidateSet([d, d], X)
        assert cs.condition_number() > 1e10


class TestSelectCandidate:
    def test_single_candidate(self):
        X = Sample(np.array([0.0, 0.5]))
        fit = select_candidate(X, [ProductDensity(iid=Gaussian(0, 1), n=2)],
                               [0.0], K2)
        assert fit.chosen_index == 0

    def test_weight_budget(self):
        X = Sample(np.array([0.0, 0.5]))
        cands = [ProductDensity(iid=Gaussian(m, 1), n=2) for m in (0, 1)]
        with pytest.raises(ContractViolationError):
            select_candidate(X, cands, [0.0, 0.0], K2)

    def test_separated_candidates(self):
        hits = 0
        for rep in range(30):
            rng = np.random.default_rng(50 + rep)
            X = Sample(rng.normal(0, 1, 100))
            cands = [ProductDensity(iid=Gaussian(0, 1), n=100),
                     ProductDensity(iid=Gaussian(5, 1), n=100)]
            fit = select_candidate(X, cands, [math.log(2), math.log(2)], K2)
            hits += fit.chosen_index == 0
        assert hits == 30

    def test_identical_candidates_tie_break(self):
        X = Sample(np.array([0.0, 0.5]))
        d = ProductDensity(iid=Gaussian(0, 1), n=2)
        fit = select_candidate(X, [d, d], [math.log(2), 5.0], K2)
        assert fit.chosen_index == 0


class TestTMix:
    def test_diagonal_zero(self):
        X = Sample(np.random.default_rng(0).normal(0, 1, 10))
        cs = gaussian_candidates([-1, 0, 1], X)
        a = SimplexPoint((0.2, 0.5, 0.3))
        assert t_mix(X, cs, a, a, K2) == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        X = Sample(rng.normal(0, 1, 15))
        cs = gaussian_candidates([-1, 0, 1], X)
        for _ in range(20):
            w = rng.dirichlet(np.ones(3))
            v = rng.dirichlet(np.ones(3))
            a, b = SimplexPoint(tuple(w)), SimplexPoint(tuple(v))
            assert abs(t_mix(X, cs, a, b, K2) + t_mix(X, cs, b, a, K2)) <= 1e-12

    def test_hand_value(self):
        # one sample point, candidate values 1 and 4: psi2(sqrt(4)) = 1/3
        X = Sample(np.array([0.0]))
        from rhoest import Tabulated
        p1 = ProductDensity(iid=Tabulated((-1.0, 0.0, 1.0), (1.0, 1.0, 1.0)), n=1)
        p2 = ProductDensity(iid=Tabulated((-1.0, 0.0, 1.0), (4.0, 4.0, 4.0)), n=1)
        cs = CandidateSet([p1, p2], X)
        val = t_mix(X, cs, SimplexPoint((1.0, 0.0)), SimplexPoint((0.0, 1.0)), K2)
        assert val == pytest.approx(1 / 3, abs=1e-15)

    def test_concavity_in_beta(self):
        rng = np.random.default_rng(2)
        X = Sample(rng.normal(0, 1, 12))
        cs = gaussian_candidates([-1, 0, 1], X)
        a = SimplexPoint((1 / 3, 1 / 3, 1 / 3))
        for _ in range(20):
            b1 = SimplexPoint(tuple(rng.dirichlet(np.ones(3))))
            b2 = SimplexPoint(tuple(rng.dirichlet(np.ones(3))))
            mid = SimplexPoint(tuple(0.5 * (np.array(b1.weights)
                                            + np.array(b2.weights))))
            chord = 0.5 * (t_mix(X, cs, a, b1, K2) + t_mix(X, cs, a, b2, K2))
            assert t_mix(X, cs, a, mid, K2) >= chord - 1e-10


class TestInnerArgmax:
    def test_identical_candidates_flat_objective(self):
        X = Sample(np.array([0.0, 1.0]))
        d = ProductDensity(iid=Gaussian(0, 1), n=2)
        cs = CandidateSet([d, d], X)
        alpha = SimplexPoint((0.5, 0.5))
        beta = inner_argmax(X, cs, alpha, K2)
        assert beta.weights == tuple(beta.weights)   # valid simplex point
        assert abs(sum(beta.weights) - 1.0) <= 1e-12

    def test_two_candidates_golden_section_oracle(self):
        rng = np.random.default_rng(3)
        X = Sample(rng.normal(0.5, 1, 20))
        cs = gaussian_candidates([0.0, 1.0], X)
        alpha = SimplexPoint((0.5, 0.5))

        def obj(b):
            return t_mix(X, cs, alpha, SimplexPoint((b, 1.0 - b)), K2)

        b_star = golden_section_argmax(obj, 0.0, 1.0)
        beta = inner_argmax(X, cs, alpha, K2,
                            InnerSolverConfig(tol=1e-12, max_iter=20000))
        assert obj(beta.weights[0]) == pytest.approx(obj(b_star), abs=1e-6)
        assert beta.weights[0] == pytest.approx(b_star, abs=1e-3)


class TestSaddlePoint:
    def test_single_candidate(self):
        X = Sample(np.array([0.0, 1.0]))
        cs = CandidateSet([ProductDensity(iid=Gaussian(0, 1), n=2)], X)
        out = saddle_point(X, cs, K2)
        assert out["alpha_star"].weights == (1.0,)
        assert out["certificate"] == 0.0
        assert out["converged"]

    def test_eps_validation(self):
        X = Sample(np.array([0.0, 1.0]))
        cs = gaussian_candidates([0.0, 1.0], X)
        with pytest.raises(ContractViolationError):
            saddle_point(X, cs, K2, eps=0.0)

    def test_degenerate_candidates_rejected(self):
        X = Sample(np.array([0.0, 1.0, 2.0]))
        d = ProductDensity(iid=Gaussian(0, 1), n=3)
        cs = CandidateSet([d, d], X)
        with pytest.raises(DegenerateCandidatesError):
            saddle_point(X, cs, K2)

    def test_dominant_candidate_gets_weight(self):
        hits = 0
        reps = 30
        for rep in range(reps):
            rng = np.random.default_rng(200 + rep)
            X = Sample(rng.normal(0, 1, 200))
            cs = gaussian_candidates([0.0, 3.0], X)
            out = saddle_point(X, cs, K2)
            assert out["converged"]
            hits += out["alpha_star"].weights[0] >= 0.9
        assert hits / reps >= 0.95

    def test_grid_oracle_three_candidates(self):
        rng = np.random.default_rng(5)
        X = Sample(rng.normal(0, 1, 5))
        cs = gaussian_candidates([-0.5, 0.2, 0.9], X)
        out = saddle_point(X, cs, K2, eps=1e-4)
        assert out["converged"]
        assert out["certificate"] < 1e-4
        ups = mixture_upsilon(X, cs, out["alpha_star"], grid_steps=100, kernel=K2)
        assert ups < 1e-4 + 1e-3

    def test_two_sided_saddle_property(self):
        rng = np.random.default_rng(6)
        X = Sample(rng.normal(0, 1, 30))
        cs = gaussian_candidates([-1.0, 0.0, 1.0], X)
        out = saddle_point(X, cs, K2, eps=1e-5)
        alpha = out["alpha_star"]
        for g in simplex_grid(3, 10):
            assert t_mix(X, cs, alpha, g, K2) <= 1e-5 + 1e-9
            assert t_mix(X, cs, g, alpha, K2) >= -(1e-5 + 1e-9)


class TestLineSearch:
    @pytest.mark.parametrize("kernel", [K1, K2], ids=["psi1", "psi2"])
    def test_matches_bisection_oracle(self, kernel):
        rng = np.random.default_rng(11)
        interior = 0
        for _ in range(40):
            size = int(rng.integers(2, 6))
            X = Sample(rng.normal(0.0, 1.5, 80))
            P = gaussian_candidates(rng.uniform(-2.0, 2.0, size), X).values
            beta = rng.dirichlet(np.ones(size))
            d_sqrt = np.sqrt(rng.dirichlet(np.ones(size)) @ P)
            m = beta @ P
            j = int(rng.integers(size))
            # Frank-Wolfe step toward vertex j, then away step from it.
            vertex = np.zeros(size)
            vertex[j] = 1.0
            dropped = beta / (1.0 - beta[j])
            dropped[j] = 0.0
            for end, gamma_max in ((vertex, 1.0),
                                   (dropped, beta[j] / (1.0 - beta[j]))):
                direction = (end - beta) / gamma_max
                want = bisection_line_search(kernel, m, direction @ P, d_sqrt,
                                             gamma_max)
                got = _line_search(kernel, m, end @ P, d_sqrt) * gamma_max
                assert abs(got - want) <= 1e-12 * gamma_max
                interior += 0.0 < want < gamma_max
        assert interior >= 20

    def test_evaluation_count_is_bounded(self, monkeypatch):
        evaluations, per_search = [0], []
        gradient, search = aggregation._mix_gradient_wrt_m, aggregation._line_search

        def counting_gradient(*args):
            evaluations[0] += 1
            return gradient(*args)

        def counting_search(*args):
            before = evaluations[0]
            step = search(*args)
            per_search.append(evaluations[0] - before)
            return step

        monkeypatch.setattr(aggregation, "_mix_gradient_wrt_m", counting_gradient)
        monkeypatch.setattr(aggregation, "_line_search", counting_search)
        for kernel in (K1, K2):
            X, cs = face_case(7)
            saddle_point(X, cs, kernel)
        assert len(per_search) > 100
        assert max(per_search) <= 15

    def test_away_step_to_a_vertex_stays_finite(self):
        # Here an away step ends where the dropped vertex carried nearly all
        # of the mixture at a sample point; m + gamma_max * m_dir cancels to 0.
        X, cs = face_case(7)
        out = saddle_point(X, cs, K2)
        assert out["converged"]
        assert out["certificate"] < 1e-4

    def test_nan_derivative_raises(self):
        m, m_end = np.array([1.0, 2.0]), np.array([2.0, 1.0])
        with pytest.raises(SolverError, match="derivative"):
            _line_search(K2, m, m_end, np.array([1.0, np.nan]))

    def test_failed_root_find_raises(self, monkeypatch):
        m, m_end, d_sqrt = np.array([0.1, 4.0]), np.array([4.0, 0.1]), np.ones(2)
        monkeypatch.setattr(aggregation.optimize, "brentq",
                            lambda *a, **k: (0.5, SimpleNamespace(
                                converged=False, flag="convergence error")))
        with pytest.raises(SolverError, match="did not converge"):
            _line_search(K2, m, m_end, d_sqrt)
