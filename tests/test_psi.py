import decimal
import math

import numpy as np
import pytest

from rhoest import (Cauchy, ContractViolationError, Gaussian, Laplace,
                    QuadratureSpec, Uniform, check_assumption, eval_psi,
                    hellinger_sq, kernel_constants, psi_pair)
from rhoest import psi, quadrature
from rhoest.densities import integrate_on_supports

PSI1 = kernel_constants("psi1")
PSI2 = kernel_constants("psi2")


def check_assumption_oracle(kernel, q, qp, r, quad):
    """check_assumption with two independent integrands that share nothing."""
    def psi_at(x):
        return psi_pair(kernel, np.sqrt(qp.pdf(x)), np.sqrt(q.pdf(x)))

    lhs_esp = integrate_on_supports(lambda x: psi_at(x) * r.pdf(x),
                                    (r,), (q, qp), quad)
    lhs_var = integrate_on_supports(lambda x: psi_at(x) ** 2 * r.pdf(x),
                                    (r,), (q, qp), quad)
    h2_rq, h2_rqp = hellinger_sq(r, q, quad), hellinger_sq(r, qp, quad)
    rhs_esp = kernel.a0 * h2_rq - kernel.a1 * h2_rqp
    rhs_var = kernel.a2_sq * (h2_rq + h2_rqp)
    tol = max(quad.abs_tol, 1e-9)
    return {"lhs_esp": lhs_esp, "rhs_esp": rhs_esp, "lhs_var": lhs_var,
            "rhs_var": rhs_var,
            "pass": bool(lhs_esp <= rhs_esp + tol and lhs_var <= rhs_var + tol)}


def oracle_triples():
    rng = np.random.default_rng(17)
    kinds = (Gaussian, Laplace, Cauchy)
    triples = [tuple(kinds[rng.integers(3)](rng.uniform(-3, 3), rng.uniform(0.5, 2))
                     for _ in range(3)) for _ in range(8)]
    # A bounded r, and a Laplace kink inside r's support.
    return triples + [(Laplace(0.3, 1.0), Laplace(-0.5, 0.7), Uniform(-1.0, 2.0)),
                      (Gaussian(0.0, 1.0), Laplace(0.4, 1.3), Cauchy(-0.2, 0.8))]


class TestConstants:
    def test_psi2_certified_values(self):
        assert PSI2.a0 == 4.0
        assert PSI2.a1 == 0.375
        assert PSI2.a2_sq == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-15)

    def test_psi1_certified_values(self):
        assert PSI1.a0 == 4.97
        assert PSI1.a1 == 0.083
        assert PSI1.a2_sq == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), abs=1e-15)

    def test_psi2_kappa_arithmetic(self):
        assert PSI2.kappa == pytest.approx(280.0 * math.sqrt(2.0) + 74.0, rel=1e-14)
        assert PSI2.kappa == pytest.approx(469.98, abs=0.01)

    def test_beta_formula(self):
        for k in (PSI1, PSI2):
            assert k.beta == pytest.approx(k.a1 / (4.0 * k.a2), rel=1e-15)

    def test_gamma_formula(self):
        for k in (PSI1, PSI2):
            expected = 4.0 * (k.a0 + 16.0) / k.a1 + 2.0 + 168.0 / k.a2_sq
            assert k.gamma == pytest.approx(expected, rel=1e-15)

    def test_slack_floor(self):
        # the near-minimizer slack kappa/25 stays above 11.36 for both kernels
        assert PSI1.kappa / 25.0 >= 11.36
        assert PSI2.kappa / 25.0 >= 11.36

    def test_constant_inequalities(self):
        for k in (PSI1, PSI2):
            assert k.a0 >= 1.0 >= k.a1 > 0.0
            assert k.a2_sq >= max(1.0, 6.0 * k.a1)

    def test_unknown_kernel(self):
        with pytest.raises(ContractViolationError):
            kernel_constants("psi3")

    @pytest.mark.parametrize("kernel_id", ["psi3", "", None, 1, np.array(["psi1"])])
    def test_kernel_of_unknown_id_rejected(self, kernel_id):
        # Only psi1 and psi2 have a ratio and a row of root ranges.
        with pytest.raises(ContractViolationError, match="^id must be psi1 or psi2, got "):
            psi.PsiKernel(kernel_id, a0=4.0, a1=0.375, a2_sq=4.25)
        assert psi.PsiKernel("psi2", a0=4.0, a1=0.375, a2_sq=4.25)._exact == PSI2._exact


class TestEvalPsi:
    def test_point_values(self):
        assert eval_psi(PSI2, 1.0) == 0.0
        assert eval_psi(PSI2, float("inf")) == 1.0
        assert eval_psi(PSI2, 3.0) == 0.5
        assert eval_psi(PSI1, 0.0) == -1.0
        assert eval_psi(PSI1, 1.0) == 0.0
        assert eval_psi(PSI1, float("inf")) == 1.0

    def test_rejects_negative_and_nan(self):
        with pytest.raises(ContractViolationError):
            eval_psi(PSI2, -0.1)
        with pytest.raises(ContractViolationError):
            eval_psi(PSI2, float("nan"))

    @pytest.mark.parametrize("kernel", ["psi2", None, PSI2.__dict__])
    def test_kernel_must_be_a_psi_kernel(self, kernel):
        """Equal roots, which never read the kernel, and both operand paths."""
        calls = [lambda: eval_psi(kernel, 1.0), lambda: eval_psi(kernel, 3.0),
                 lambda: psi_pair(kernel, 1.0, 2.0), lambda: psi_pair(kernel, 2.0, 2.0),
                 lambda: psi_pair(kernel, np.ones(3), np.ones(3)),
                 lambda: psi_pair(kernel, np.array([0.0, 1.0]), 2.0)]
        for call in calls:
            with pytest.raises(ContractViolationError, match="kernel must be a PsiKernel"):
                call()

    @pytest.mark.parametrize("k", [PSI1, PSI2], ids=lambda k: k.id)
    def test_antisymmetry_under_inversion(self, k):
        x = np.logspace(-6, 6, 1000)
        assert np.max(np.abs(eval_psi(k, x) + eval_psi(k, 1.0 / x))) <= 1e-12

    @pytest.mark.parametrize("k", [PSI1, PSI2], ids=lambda k: k.id)
    def test_monotone_and_bounded(self, k):
        x = np.sort(np.random.default_rng(5).uniform(0, 50, 500))
        v = eval_psi(k, x)
        assert np.all(np.diff(v) >= 0.0)
        assert np.all(np.abs(v) <= 1.0)

    def test_psi2_lipschitz_around_one(self):
        x = np.linspace(0, 10, 2001)
        assert np.all(np.abs(eval_psi(PSI2, x)) <= np.abs(x - 1.0) + 1e-15)


class TestPsiPair:
    def test_matches_direct_ratio(self):
        u = np.array([0.5, 1.0, 2.0, 3.0])
        v = np.array([1.0, 2.0, 0.5, 3.0])
        direct = eval_psi(PSI2, (u / v) ** 1)
        assert np.allclose(psi_pair(PSI2, u, v), direct, atol=1e-15)

    def test_zero_conventions(self):
        # 0/0 -> psi(1) = 0, positive/0 -> psi(inf) = 1, 0/positive -> -1
        assert psi_pair(PSI2, 0.0, 0.0) == 0.0
        assert psi_pair(PSI2, 2.0, 0.0) == 1.0
        assert psi_pair(PSI2, 0.0, 2.0) == -1.0

    def test_infinite_values(self):
        inf = float("inf")
        assert psi_pair(PSI2, inf, inf) == 0.0
        assert psi_pair(PSI2, inf, 3.0) == 1.0
        assert psi_pair(PSI2, 3.0, inf) == -1.0

    @pytest.mark.parametrize("k, u, v, want", [
        (PSI1, 2e-242, 5e-324, 1.0),  # both squares underflow
        (PSI1, math.sqrt(1.5e308), math.sqrt(1e308), 0.1421411372078075),
        (PSI2, 1.7e308, 9.769313486231587e306, 0.8913127797311211),
    ], ids=["psi1-underflow", "psi1-overflow", "psi2-overflow"])
    def test_denominator_under_and_overflow(self, k, u, v, want):
        assert psi_pair(k, u, v) == want == -psi_pair(k, v, u)
        u, v = np.array([u, 1.0]), np.array([v, 1.0])
        assert psi_pair(k, u, v).tolist() == [want, 0.0]
        assert psi_pair(k, v, u).tolist() == [-want, 0.0]

    @pytest.mark.parametrize("k", [PSI1, PSI2], ids=lambda k: k.id)
    @pytest.mark.parametrize("u, v", [
        (5e-324, 1e-160), (1e-161, 2.3e-162), (3e-162, 2.3e-162),
        (1e-157, 4e-158), (1e-155, 5e-324), (1e200, 3e199), (1e308, 2e307),
    ])
    def test_out_of_range_roots_match_exact_value(self, k, u, v):
        # psi1's squares are subnormal, zero or infinite on these roots.
        with decimal.localcontext(decimal.Context(prec=60)):
            du, dv = decimal.Decimal(u), decimal.Decimal(v)
            den = (du * du + dv * dv).sqrt() if k is PSI1 else du + dv
            want = float((du - dv) / den)
        # The float path, and the block path on an odd column beside a
        # regular one.
        block = psi_pair(k, np.array([[u, 0.5], [v, 0.5]]),
                         np.array([[v, 0.25], [u, 0.25]]))[:, 0]
        got = [psi_pair(k, u, v), block[0], -psi_pair(k, v, u), -block[1]]
        assert all(-1.0 <= g <= 1.0 for g in got)
        assert all(abs(g - want) <= 4.5e-16 * abs(want) for g in got)
        assert len(set(got)) == 1

    @pytest.mark.parametrize("k", [PSI1, PSI2], ids=lambda k: k.id)
    @pytest.mark.parametrize("u, v", [
        (float("nan"), 1.0),
        (0.0, float("nan")),
        (np.array([0.5, np.nan]), np.ones(2)),
        (np.ones((1, 3, 2)), np.array([[[1.0, np.nan]]] * 2)),
    ])
    def test_rejects_nan_roots(self, k, u, v):
        with pytest.raises(ContractViolationError, match="square roots"):
            psi_pair(k, u, v)

    @pytest.mark.parametrize("odd", [(), (0.0,), (math.inf,), (1e-200,), (1e200,),
                                     (0.0, math.inf, 1e-200, 1e200)],
                             ids=["none", "zero", "inf", "tiny", "huge", "all"])
    def test_odd_columns_of_one_matrix_passed_twice(self, odd):
        # The square criterion passes one matrix as both operands, which
        # _settle then reduces, and copies, once.  Zeros and infinities
        # settle; a finite root outside the kernel's exact range scales its
        # column (1e200 is inside psi2's range).
        S = np.random.default_rng(4).uniform(0.1, 2.0, (41, 500))
        cols = [7, 100, 250, 499][:len(odd)]
        S[[3, 17, 29, 40][:len(odd)], cols] = np.array(odd, dtype=float)
        for k in (PSI1, PSI2):
            lo, hi = psi._ROOTS[k.id, np.float64][:2]
            su, sv, scaled = psi._settle(k, S, S)
            tu, tv, want = psi._settle(k, S, S.copy())
            assert sv is su
            assert np.array_equal(scaled, want) and scaled.dtype == np.intp
            assert su.tobytes() == tu.tobytes() == tv.tobytes()
            assert scaled.tolist() == [c for c, x in zip(cols, odd)
                                       if 0.0 < x < lo or hi < x < math.inf]
            assert np.flatnonzero((su != S).any(axis=0)).tolist() == [
                c for c, x in zip(cols, odd) if x in (0.0, math.inf)]

    @pytest.mark.parametrize("k", [PSI1, PSI2], ids=lambda k: k.id)
    def test_exact_swap_antisymmetry(self, k):
        rng = np.random.default_rng(9)
        u = rng.uniform(0, 5, 1000)
        v = rng.uniform(0, 5, 1000)
        lhs = psi_pair(k, u, v)
        rhs = psi_pair(k, v, u)
        assert np.all(lhs + rhs == 0.0)


class TestRatioDerivatives:
    @pytest.mark.parametrize("k", [PSI1, PSI2], ids=lambda k: k.id)
    def test_central_differences(self, k):
        rng = np.random.default_rng(21)
        u = rng.uniform(0.05, 4.0, 500)
        v = rng.uniform(0.05, 4.0, 500)
        h = 1e-5 * u
        du = (k.ratio(u + h, v) - k.ratio(u - h, v)) / (2.0 * h)
        duu = (k.ratio_du(u + h, v) - k.ratio_du(u - h, v)) / (2.0 * h)
        assert np.allclose(k.ratio_du(u, v), du, rtol=0.0, atol=1e-8)
        assert np.allclose(k.ratio_duu(u, v), duu, rtol=0.0, atol=1e-8)


class TestCheckAssumption:
    QUAD = QuadratureSpec(abs_tol=1e-9)

    def test_degenerate_triple(self):
        rep = check_assumption(PSI2, Gaussian(0, 1), Gaussian(0, 1),
                               Gaussian(0, 1), self.QUAD)
        assert rep["pass"]
        assert rep["lhs_esp"] == pytest.approx(0.0, abs=1e-9)
        assert rep["rhs_esp"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("kernel", ["psi2", None])
    def test_kernel_must_be_a_psi_kernel(self, kernel):
        with pytest.raises(ContractViolationError, match="kernel must be a PsiKernel"):
            check_assumption(kernel, Gaussian(0, 1), Gaussian(1, 1), Gaussian(0, 1),
                             self.QUAD)

    @pytest.mark.parametrize("bad", ["g", None, 1.0])
    def test_densities_must_be_densities(self, bad):
        g = Gaussian(0, 1)
        for name, args in (("q", (bad, g, g)), ("qp", (g, bad, g)), ("r", (g, g, bad))):
            with pytest.raises(ContractViolationError, match=f"^{name} must be a Density1D"):
                check_assumption(PSI2, *args, self.QUAD)

    def test_signed_expectation(self):
        rep = check_assumption(PSI2, Gaussian(0, 1), Gaussian(2, 1),
                               Gaussian(0, 1), self.QUAD)
        assert rep["pass"]
        assert rep["lhs_esp"] < 0.0
        assert rep["rhs_esp"] <= 0.0

    @pytest.mark.parametrize("k", [PSI1, PSI2], ids=lambda k: k.id)
    def test_bounded_r_riemann_oracle(self, k, monkeypatch):
        # Every integral runs over r's support [-1, 2], split at the kinks
        # that q and q' put inside it.
        q, qp, r = Laplace(0.3, 1.0), Laplace(-0.5, 0.7), Uniform(-1.0, 2.0)
        edges = set()
        real_quad = quadrature.integrate.quad

        def spy(f, a, b, **kw):
            edges.update((a, b))
            return real_quad(f, a, b, **kw)

        monkeypatch.setattr(quadrature.integrate, "quad", spy)
        rep = check_assumption(k, q, qp, r, QuadratureSpec(abs_tol=1e-10))
        assert edges == {-1.0, -0.5, 0.3, 2.0}
        x = np.linspace(-1.0, 2.0, 600001)
        psi = psi_pair(k, np.sqrt(qp.pdf(x)), np.sqrt(q.pdf(x)))
        h2_rq = 1.0 - np.trapezoid(np.sqrt(r.pdf(x) * q.pdf(x)), x)
        h2_rqp = 1.0 - np.trapezoid(np.sqrt(r.pdf(x) * qp.pdf(x)), x)
        assert rep["lhs_esp"] == pytest.approx(np.trapezoid(psi * r.pdf(x), x),
                                               abs=1e-9)
        assert rep["lhs_var"] == pytest.approx(np.trapezoid(psi**2 * r.pdf(x), x),
                                               abs=1e-9)
        assert rep["rhs_esp"] == pytest.approx(k.a0 * h2_rq - k.a1 * h2_rqp,
                                               abs=1e-9)
        assert rep["rhs_var"] == pytest.approx(k.a2_sq * (h2_rq + h2_rqp),
                                               abs=1e-9)

    @pytest.mark.parametrize("k", [PSI1, PSI2], ids=lambda k: k.id)
    def test_random_gaussian_triples(self, k):
        rng = np.random.default_rng(42)
        for _ in range(50):
            q, qp, r = (Gaussian(rng.uniform(-3, 3), rng.uniform(0.5, 2))
                        for _ in range(3))
            rep = check_assumption(k, q, qp, r, QuadratureSpec(abs_tol=1e-8))
            assert rep["pass"], (q, qp, r, rep)

    @pytest.mark.parametrize("k", [PSI1, PSI2], ids=lambda k: k.id)
    def test_shared_nodes_match_independent_integrands_bitwise(self, k):
        quad = QuadratureSpec(abs_tol=1e-8)
        for q, qp, r in oracle_triples():
            rep = check_assumption(k, q, qp, r, quad)
            want = check_assumption_oracle(k, q, qp, r, quad)
            assert ({f: float(v).hex() for f, v in rep.items()}
                    == {f: float(v).hex() for f, v in want.items()}), (q, qp, r)

    def test_psi_pair_runs_once_per_distinct_node(self, monkeypatch):
        q, qp, r = Laplace(0.3, 1.0), Gaussian(-0.5, 0.7), Cauchy(0.1, 1.5)
        nodes, psi_calls = [], []
        real_integrate, real_psi_pair = psi.integrate_on_supports, psi.psi_pair

        def integrate_spy(fn, *args):
            def traced(x):
                nodes.append(x)
                return fn(x)
            return real_integrate(traced, *args)

        def psi_pair_spy(*args):
            psi_calls.append(args)
            return real_psi_pair(*args)

        monkeypatch.setattr(psi, "integrate_on_supports", integrate_spy)
        monkeypatch.setattr(psi, "psi_pair", psi_pair_spy)
        check_assumption(PSI2, q, qp, r, QuadratureSpec(abs_tol=1e-8))
        assert len(psi_calls) == len(set(nodes)) < len(nodes)
