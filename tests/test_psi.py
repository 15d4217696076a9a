import math

import numpy as np
import pytest

from rhoest import (ContractViolationError, Gaussian, Laplace, QuadratureSpec,
                    Uniform, check_assumption, eval_psi, kernel_constants,
                    psi_pair)
from rhoest import quadrature

PSI1 = kernel_constants("psi1")
PSI2 = kernel_constants("psi2")


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

    @pytest.mark.parametrize("k", [PSI1, PSI2], ids=lambda k: k.id)
    def test_exact_swap_antisymmetry(self, k):
        rng = np.random.default_rng(9)
        u = rng.uniform(0, 5, 1000)
        v = rng.uniform(0, 5, 1000)
        lhs = psi_pair(k, u, v)
        rhs = psi_pair(k, v, u)
        assert np.all(lhs + rhs == 0.0)


class TestCheckAssumption:
    QUAD = QuadratureSpec(abs_tol=1e-9)

    def test_degenerate_triple(self):
        rep = check_assumption(PSI2, Gaussian(0, 1), Gaussian(0, 1),
                               Gaussian(0, 1), self.QUAD)
        assert rep["pass"]
        assert rep["lhs_esp"] == pytest.approx(0.0, abs=1e-9)
        assert rep["rhs_esp"] == pytest.approx(0.0, abs=1e-9)

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
