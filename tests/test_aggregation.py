import math

import numpy as np
import pytest

from rhoest import (Cauchy, CandidateSet, ContractViolationError, Gaussian,
                    InnerSolverConfig, Laplace, ProductDensity, Sample,
                    SimplexPoint, SolverError, aggregation, inner_argmax,
                    kernel_constants, mixture_upsilon, saddle_point,
                    select_candidate, simplex_grid, t_mix)
from rhoest.aggregation import (_line_search, _mix_derivatives,
                                _mix_gradient_wrt_m, simplex_grid_array)
from rhoest.errors import DegenerateCandidatesError

K1 = kernel_constants("psi1")
K2 = kernel_constants("psi2")


def gaussian_candidates(means, X):
    return CandidateSet([ProductDensity(iid=Gaussian(m, 1), n=X.n)
                         for m in means], X)


def face_case(seed, n=500):
    """Six candidates fitted to a mixture of the first two: the saddle point
    lies on a face of the simplex, so the inner solve has to drop weights
    to exactly 0."""
    rng = np.random.default_rng([seed, seed])
    w = rng.uniform(0.25, 0.75)
    left = rng.uniform(0.0, 1.0, n) < w
    X = Sample(np.where(left, rng.normal(-1.0, 1.0, n), rng.normal(1.5, 0.7, n)))
    marginals = [Gaussian(-1.0, 1.0), Gaussian(1.5, 0.7), Cauchy(0.0, 2.0),
                 Laplace(0.0, 1.0), Gaussian(0.0, 2.0), Gaussian(1.0, 1.0)]
    return X, CandidateSet([ProductDensity(iid=d, n=n) for d in marginals], X)


def away_step_frank_wolfe(cs, alpha, kernel, tol, max_iter=100000):
    """Frank-Wolfe with away steps from the uniform weights, kept as an oracle
    for the Newton inner solve (Lacoste-Julien & Jaggi 2015)."""
    P, N = cs.values, cs.size
    d_sqrt = np.sqrt(alpha.as_array() @ P)
    beta = np.full(N, 1.0 / N)
    m = beta @ P
    for _ in range(max_iter):
        grad_m, hess_m = _mix_derivatives(kernel, m, d_sqrt)
        grad = P @ grad_m
        g_dot_beta = float(grad @ beta)
        fw_j = int(np.argmax(grad))
        fw_gap = float(grad[fw_j]) - g_dot_beta
        if fw_gap < tol:
            break
        active = np.flatnonzero(beta > 1e-15)
        away_j = int(active[np.argmin(grad[active])])
        if fw_gap >= g_dot_beta - float(grad[away_j]):
            end = np.zeros(N)
            end[fw_j] = 1.0
        else:
            w = beta[away_j]
            if w >= 1.0 - 1e-15:
                break
            end = beta / (1.0 - w)
            end[away_j] = 0.0
        s = _line_search(kernel, m, end @ P, d_sqrt, grad_m, hess_m)
        if s <= 0.0:
            break
        beta = (1.0 - s) * beta + s * end
        beta /= beta.sum()
        m = beta @ P
    return beta


def frank_wolfe_gap(cs, alpha, beta, kernel):
    P = cs.values
    grad = P @ _mix_gradient_wrt_m(kernel, beta.as_array() @ P,
                                   np.sqrt(alpha.as_array() @ P))
    return float(grad.max() - grad @ beta.as_array())


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
        assert t_mix(cs, a, a, K2) == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        X = Sample(rng.normal(0, 1, 15))
        cs = gaussian_candidates([-1, 0, 1], X)
        for _ in range(20):
            w = rng.dirichlet(np.ones(3))
            v = rng.dirichlet(np.ones(3))
            a, b = SimplexPoint(tuple(w)), SimplexPoint(tuple(v))
            assert abs(t_mix(cs, a, b, K2) + t_mix(cs, b, a, K2)) <= 1e-12

    def test_hand_value(self):
        # one sample point, candidate values 1 and 4: psi2(sqrt(4)) = 1/3
        X = Sample(np.array([0.0]))
        from rhoest import Tabulated
        p1 = ProductDensity(iid=Tabulated((-1.0, 0.0, 1.0), (1.0, 1.0, 1.0)), n=1)
        p2 = ProductDensity(iid=Tabulated((-1.0, 0.0, 1.0), (4.0, 4.0, 4.0)), n=1)
        cs = CandidateSet([p1, p2], X)
        val = t_mix(cs, SimplexPoint((1.0, 0.0)), SimplexPoint((0.0, 1.0)), K2)
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
            chord = 0.5 * (t_mix(cs, a, b1, K2) + t_mix(cs, a, b2, K2))
            assert t_mix(cs, a, mid, K2) >= chord - 1e-10


class TestInnerArgmax:
    def test_identical_candidates_flat_objective(self):
        X = Sample(np.array([0.0, 1.0]))
        d = ProductDensity(iid=Gaussian(0, 1), n=2)
        cs = CandidateSet([d, d], X)
        alpha = SimplexPoint((0.5, 0.5))
        beta = inner_argmax(cs, alpha, K2)
        assert beta.weights == tuple(beta.weights)   # valid simplex point
        assert abs(sum(beta.weights) - 1.0) <= 1e-12

    def test_two_candidates_golden_section_oracle(self):
        rng = np.random.default_rng(3)
        X = Sample(rng.normal(0.5, 1, 20))
        cs = gaussian_candidates([0.0, 1.0], X)
        alpha = SimplexPoint((0.5, 0.5))

        def obj(b):
            return t_mix(cs, alpha, SimplexPoint((b, 1.0 - b)), K2)

        b_star = golden_section_argmax(obj, 0.0, 1.0)
        beta = inner_argmax(cs, alpha, K2,
                            InnerSolverConfig(tol=1e-12, max_iter=20000))
        assert obj(beta.weights[0]) == pytest.approx(obj(b_star), abs=1e-6)
        assert beta.weights[0] == pytest.approx(b_star, abs=1e-3)

    @pytest.mark.parametrize("kernel", [K1, K2], ids=["psi1", "psi2"])
    def test_matches_away_step_oracle(self, kernel):
        rng = np.random.default_rng(13)
        cases = [face_case(seed) for seed in (7, 8, 9)]
        for _ in range(12):
            X = Sample(rng.normal(0.0, 1.5, 80))
            cases.append((X, gaussian_candidates(
                rng.uniform(-2.0, 2.0, int(rng.integers(2, 7))), X)))
        inner = InnerSolverConfig()
        for X, cs in cases:
            for alpha in (SimplexPoint(tuple(np.full(cs.size, 1.0 / cs.size))),
                          SimplexPoint(tuple(rng.dirichlet(np.ones(cs.size))))):
                beta = inner_argmax(cs, alpha, kernel, inner)
                want = away_step_frank_wolfe(cs, alpha, kernel, tol=1e-13)
                assert np.abs(beta.as_array() - want).max() <= 1e-6
                assert frank_wolfe_gap(cs, alpha, beta, kernel) < inner.tol

    def test_duplicate_candidates(self):
        # Two equal rows make the Newton system exactly singular on any face
        # that holds both; its least-squares step still reaches the maximum.
        X = Sample(np.random.default_rng(4).normal(0.0, 1.0, 40))
        cs = gaussian_candidates([-1.0, 0.0, 0.0, 1.5], X)
        alpha = SimplexPoint((0.7, 0.1, 0.1, 0.1))
        beta = inner_argmax(cs, alpha, K2)
        want = away_step_frank_wolfe(cs, alpha, K2, tol=1e-13)
        merge = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
        assert np.abs(merge @ (beta.as_array() - want)).max() <= 1e-6
        assert frank_wolfe_gap(cs, alpha, beta, K2) < InnerSolverConfig().tol

    def test_newton_step_is_cut_where_a_weight_reaches_zero(self):
        rng = np.random.default_rng(0)
        X = Sample(rng.normal(0.0, 1.5, 60))
        P = gaussian_candidates([-2.0, -0.5, 0.5, 2.0], X).values
        cut = 0
        for _ in range(500):
            alpha, beta = rng.dirichlet(np.ones(4), size=2)
            grad_m, hess_m = _mix_derivatives(K2, beta @ P, np.sqrt(alpha @ P))
            grad = P @ grad_m
            kkt = np.block([[(P * hess_m) @ P.T, np.ones((4, 1))],
                            [np.ones((1, 4)), np.zeros((1, 1))]])
            step = np.linalg.solve(kkt, np.append(-grad, 0.0))[:4]
            reach = min(1.0, min(-b / d for b, d in zip(beta, step) if d < 0))
            end = aggregation._newton_end_point(P, beta, grad, hess_m,
                                                int(np.argmax(grad)))
            assert np.allclose(end, beta + reach * step, rtol=0.0, atol=1e-12)
            if reach < 1.0:
                cut += 1
                assert np.count_nonzero(end == 0.0) == 1
            assert end.min() >= 0.0 and abs(end.sum() - 1.0) <= 1e-15
        assert cut >= 100

    def test_vertex_steps_alone_reach_the_maximum(self, monkeypatch):
        # The safeguard when no Newton end point is usable.
        monkeypatch.setattr(aggregation, "_newton_end_point", lambda *args: None)
        rng = np.random.default_rng(3)
        X = Sample(rng.normal(0.5, 1, 20))
        cs = gaussian_candidates([0.0, 1.0], X)
        alpha = SimplexPoint((0.9, 0.1))
        beta = inner_argmax(cs, alpha, K2)
        want = away_step_frank_wolfe(cs, alpha, K2, tol=1e-13)
        assert np.abs(beta.as_array() - want).max() <= 1e-6

    def test_starts_at_alpha(self, monkeypatch):
        X, cs = face_case(8)
        alpha = SimplexPoint((0.05, 0.5, 0.05, 0.1, 0.1, 0.2))
        first_m = []
        derivatives = aggregation._mix_derivatives

        def spy(kernel, m, d_sqrt):
            first_m.append(m.copy())
            return derivatives(kernel, m, d_sqrt)

        monkeypatch.setattr(aggregation, "_mix_derivatives", spy)
        inner_argmax(cs, alpha, K2)
        assert np.array_equal(first_m[0], alpha.as_array() @ cs.values)

    @pytest.mark.parametrize("kernel", [K1, K2], ids=["psi1", "psi2"])
    def test_face_case_step_count(self, kernel, monkeypatch):
        per_solve = []
        search, solve = aggregation._line_search, aggregation.inner_argmax

        def counting_search(*args):
            per_solve[-1] += 1
            return search(*args)

        def counting_solve(*args, **kwargs):
            per_solve.append(0)
            return solve(*args, **kwargs)

        monkeypatch.setattr(aggregation, "_line_search", counting_search)
        monkeypatch.setattr(aggregation, "inner_argmax", counting_solve)
        for seed in (7, 8, 9):
            X, cs = face_case(seed)
            assert saddle_point(cs, kernel)["converged"]
        assert max(per_solve) <= 30

    @pytest.mark.parametrize("kernel", [K1, K2], ids=["psi1", "psi2"])
    def test_second_derivative_helper(self, kernel):
        rng = np.random.default_rng(17)
        m = rng.uniform(0.01, 3.0, 400)
        d_sqrt = np.sqrt(rng.uniform(0.01, 3.0, 400))
        h = 1e-5 * m
        grad, hess = _mix_derivatives(kernel, m, d_sqrt)
        assert np.array_equal(grad, _mix_gradient_wrt_m(kernel, m, d_sqrt))
        fd = (_mix_gradient_wrt_m(kernel, m + h, d_sqrt)
              - _mix_gradient_wrt_m(kernel, m - h, d_sqrt)) / (2.0 * h)
        assert np.allclose(hess, fd, rtol=1e-6, atol=1e-8)
        assert np.all(hess < 0.0)


class TestSolverSettings:
    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf"), "1e-8",
                                     True])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ContractViolationError, match="tol"):
            InnerSolverConfig(tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, True, None, float("nan"), "5"])
    def test_bad_max_iter_rejected(self, max_iter):
        with pytest.raises(ContractViolationError, match="max_iter"):
            InnerSolverConfig(max_iter=max_iter)

    @pytest.mark.parametrize("max_outer", [0, -1, 3.0, False, float("nan"), "3"])
    def test_bad_max_outer_rejected(self, max_outer):
        X = Sample(np.array([0.0, 1.0]))
        cs = gaussian_candidates([0.0, 1.0], X)
        with pytest.raises(ContractViolationError, match="max_outer"):
            saddle_point(cs, K2, max_outer=max_outer)

    def test_smallest_settings_accepted(self):
        X = Sample(np.array([0.0, 1.0, 2.0]))
        cs = gaussian_candidates([0.0, 1.0], X)
        out = saddle_point(cs, K2, max_outer=np.int64(1),
                           inner=InnerSolverConfig(tol=1e-3, max_iter=1))
        assert out["iterations"] == 1
        assert math.isfinite(out["certificate"])


class TestSaddlePoint:
    def test_single_candidate(self):
        X = Sample(np.array([0.0, 1.0]))
        cs = CandidateSet([ProductDensity(iid=Gaussian(0, 1), n=2)], X)
        out = saddle_point(cs, K2)
        assert out["alpha_star"].weights == (1.0,)
        assert out["certificate"] == 0.0
        assert out["converged"]

    def test_eps_validation(self):
        X = Sample(np.array([0.0, 1.0]))
        cs = gaussian_candidates([0.0, 1.0], X)
        with pytest.raises(ContractViolationError):
            saddle_point(cs, K2, eps=0.0)

    def test_degenerate_candidates_rejected(self):
        X = Sample(np.array([0.0, 1.0, 2.0]))
        d = ProductDensity(iid=Gaussian(0, 1), n=3)
        cs = CandidateSet([d, d], X)
        with pytest.raises(DegenerateCandidatesError):
            saddle_point(cs, K2)

    def test_dominant_candidate_gets_weight(self):
        hits = 0
        reps = 30
        for rep in range(reps):
            rng = np.random.default_rng(200 + rep)
            X = Sample(rng.normal(0, 1, 200))
            cs = gaussian_candidates([0.0, 3.0], X)
            out = saddle_point(cs, K2)
            assert out["converged"]
            hits += out["alpha_star"].weights[0] >= 0.9
        assert hits / reps >= 0.95

    def test_grid_oracle_three_candidates(self):
        rng = np.random.default_rng(5)
        X = Sample(rng.normal(0, 1, 5))
        cs = gaussian_candidates([-0.5, 0.2, 0.9], X)
        out = saddle_point(cs, K2, eps=1e-4)
        assert out["converged"]
        assert out["certificate"] < 1e-4
        ups = mixture_upsilon(cs, out["alpha_star"], grid_steps=100, kernel=K2)
        assert ups < 1e-4 + 1e-3

    def test_two_sided_saddle_property(self):
        rng = np.random.default_rng(6)
        X = Sample(rng.normal(0, 1, 30))
        cs = gaussian_candidates([-1.0, 0.0, 1.0], X)
        out = saddle_point(cs, K2, eps=1e-5)
        alpha = out["alpha_star"]
        for g in simplex_grid(3, 10):
            assert t_mix(cs, alpha, g, K2) <= 1e-5 + 1e-9
            assert t_mix(cs, g, alpha, K2) >= -(1e-5 + 1e-9)

    def test_sample_is_chosen_once_in_the_candidate_set(self):
        # The solve reads only the candidate values at the sample the set
        # was built on; no function takes a second sample.
        X, cs = face_case(7)
        assert not hasattr(cs, "sample")
        out = saddle_point(cs)
        assert out["converged"]
        assert out == saddle_point(cs, K2)
        a, b = SimplexPoint.vertex(0, cs.size), out["alpha_star"]
        with pytest.raises(TypeError):
            t_mix(X, cs, a, b, K2)


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
                got = _line_search(kernel, m, end @ P, d_sqrt,
                                   *_mix_derivatives(kernel, m, d_sqrt)) * gamma_max
                assert abs(got - want) <= 1e-12 * gamma_max
                interior += 0.0 < want < gamma_max
        assert interior >= 20

    def test_evaluation_count_is_bounded(self, monkeypatch):
        evaluations, per_search = [0], []
        search = aggregation._line_search

        def counting(helper):
            def count(*args):
                evaluations[0] += 1
                return helper(*args)
            return count

        def counting_search(*args):
            before = evaluations[0]
            step = search(*args)
            per_search.append(evaluations[0] - before)
            return step

        for name in ("_mix_gradient_wrt_m", "_mix_derivatives"):
            monkeypatch.setattr(aggregation, name, counting(getattr(aggregation, name)))
        monkeypatch.setattr(aggregation, "_line_search", counting_search)
        # Newton needs few searches per solve: seeds 7-12 give about 150.
        for kernel in (K1, K2):
            for seed in range(7, 13):
                X, cs = face_case(seed)
                saddle_point(cs, kernel)
        assert len(per_search) > 100
        assert max(per_search) <= 15

    def test_away_step_to_a_vertex_stays_finite(self):
        # Here a step that drops a weight to 0 ends where that candidate
        # carried nearly all of the mixture at a sample point; the end point
        # is evaluated from its own weights, so its mixture stays positive.
        X, cs = face_case(7)
        out = saddle_point(cs, K2)
        assert out["converged"]
        assert out["certificate"] < 1e-4

    def test_nan_derivative_raises(self):
        m, m_end = np.array([1.0, 2.0]), np.array([2.0, 1.0])
        d_sqrt = np.array([1.0, np.nan])
        with pytest.raises(SolverError, match="derivative"):
            _line_search(K2, m, m_end, d_sqrt, *_mix_derivatives(K2, m, d_sqrt))

    def test_step_cap_raises(self, monkeypatch):
        # The slope changes sign at s = 1/2; three steps do not reach it.
        m, m_end, d_sqrt = np.array([0.1, 4.0]), np.array([4.0, 0.1]), np.ones(2)
        at_m = _mix_derivatives(K2, m, d_sqrt)
        assert _line_search(K2, m, m_end, d_sqrt, *at_m) == pytest.approx(0.5)
        monkeypatch.setattr(aggregation, "_MAX_LINE_STEPS", 3)
        with pytest.raises(SolverError, match="did not converge in 3 steps"):
            _line_search(K2, m, m_end, d_sqrt, *at_m)
