import json
import math

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from rhoest import (Cauchy, ContractViolationError, ExpFamily, Exponential,
                    Gaussian, Histogram, Laplace, PathologicalGaussian,
                    ProductDensity, QuadratureSpec, Sample, Tabulated,
                    Uniform, density_from_json, hellinger_affinity,
                    hellinger_sq, integrate_1d, product_hellinger_sq, shifted)
from rhoest import densities, quadrature
from rhoest.errors import QuadratureError

QUAD = QuadratureSpec(abs_tol=1e-10)

ALL_CLOSED_FORM = [
    Gaussian(0.0, 1.0),
    Gaussian(2.0, 0.5),
    Cauchy(0.0, 1.0),
    Laplace(1.0, 0.7),
    Uniform(0.0, 1.0),
    Exponential(2.0, -1.0),
    Histogram((0.0, 0.5, 1.0), (0.8, 1.2)),
]


def riemann_affinity(p, q, lo, hi, m=400001):
    """Independent fixed-grid oracle for the Hellinger affinity."""
    x = np.linspace(lo, hi, m)
    y = np.sqrt(p.pdf(x) * q.pdf(x))
    return float(np.trapezoid(y, x))


class TestSample:
    def test_immutable_points(self):
        s = Sample(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.points[0] = 0.0

    def test_pair_shape_enforced(self):
        Sample(np.array([[0.0, 1.0]]), kind="pair")
        with pytest.raises(ContractViolationError):
            Sample(np.array([1.0, 2.0]), kind="pair")

    def test_empty_rejected(self):
        with pytest.raises(ContractViolationError):
            Sample(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ContractViolationError, match="finite"):
            Sample(np.array([0.0, bad, 1.0]))
        with pytest.raises(ContractViolationError, match="finite"):
            Sample(np.array([[0.0, 1.0], [1.0, bad]]), kind="pair")


class TestDensityBasics:
    @pytest.mark.parametrize("d", ALL_CLOSED_FORM, ids=lambda d: d.kind)
    def test_normalization(self, d):
        lo, hi = d.support
        total = integrate_1d(d.pdf, lo, hi, QUAD, points=d.breakpoints())
        assert abs(total - 1.0) < 1e-8

    @pytest.mark.parametrize("d", ALL_CLOSED_FORM, ids=lambda d: d.kind)
    def test_nonnegative(self, d):
        x = np.linspace(-10, 10, 2001)
        assert np.all(d.pdf(x) >= 0.0)

    def test_json_round_trip(self):
        for d in ALL_CLOSED_FORM:
            back = density_from_json(json.loads(json.dumps(d.to_json())))
            assert back == d

    def test_histogram_mass_validation(self):
        with pytest.raises(ContractViolationError):
            Histogram((0.0, 1.0), (0.5,))

    def test_shifted_matches_translation(self):
        d = Laplace(0.0, 1.0)
        s = shifted(d, 2.5)
        x = np.linspace(-5, 8, 501)
        assert np.allclose(s.pdf(x), d.pdf(x - 2.5))

    def test_exp_family_uniform_case(self):
        # coefficient zero on [0, 1]: the normalizer is 1, density is flat
        d = ExpFamily(("x",), (0.0,), 0.0, 0.0, 1.0)
        x = np.linspace(0.05, 0.95, 20)
        assert np.allclose(d.pdf(x), 1.0)

    def test_exp_family_gaussian_case(self):
        d = ExpFamily(("x", "x**2"), (0.0, -0.5), 0.5 * math.log(2 * math.pi))
        g = Gaussian(0.0, 1.0)
        x = np.linspace(-4, 4, 101)
        assert np.allclose(d.pdf(x), g.pdf(x), atol=1e-12)

    def test_tabulated_support(self):
        d = Tabulated((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))
        assert d.pdf(np.array([-1.0, 3.0])).tolist() == [0.0, 0.0]
        assert d.pdf(1.0) == 1.0

    @pytest.mark.parametrize("make", [
        lambda: Tabulated((0.0, 1.0), (math.nan, 1.0)),
        lambda: Histogram((0.0, 1.0), (math.nan,)),
        lambda: Histogram((math.nan, 1.0), (1.0,)),
        lambda: Histogram((-math.inf, 0.0, 1.0), (0.0, 1.0)),
        lambda: Gaussian(math.nan, 1.0),
        lambda: Gaussian(math.inf, 1.0),
        lambda: Cauchy(math.nan, 1.0),
        lambda: Laplace(-math.inf, 1.0),
        lambda: Exponential(1.0, math.nan),
        lambda: Tabulated((1.0, 0.0), (1.0, 1.0)),
        lambda: Tabulated((0.0, 0.0, 1.0), (1.0, 1.0, 1.0)),
        lambda: Tabulated((0.0, math.nan), (1.0, 1.0)),
        lambda: Tabulated((-math.inf, 0.0), (1.0, 1.0)),
        lambda: Gaussian(0.0, math.inf),
        lambda: Cauchy(0.0, math.inf),
        lambda: Laplace(0.0, math.inf),
        lambda: Exponential(math.inf, 0.0),
        lambda: Uniform(0.0, math.inf),
    ], ids=["tabulated-value", "histogram-height", "histogram-break",
            "histogram-infinite-break", "gaussian-nan-mean",
            "gaussian-infinite-mean", "cauchy-nan-loc", "laplace-infinite-loc",
            "exponential-nan-shift", "tabulated-decreasing-grid",
            "tabulated-repeated-grid", "tabulated-nan-grid",
            "tabulated-infinite-grid", "gaussian-infinite-sd",
            "cauchy-infinite-scale", "laplace-infinite-scale",
            "exponential-infinite-rate", "uniform-infinite-end"])
    def test_nan_parameters_rejected(self, make):
        with pytest.raises(ContractViolationError):
            make()

    @pytest.mark.parametrize("params", [
        {"mean": 0.0, "sd": 1.0, "bogus": 2.0},
        {"sd": "wide"},
    ], ids=["unknown-name", "wrong-type"])
    def test_json_bad_parameters_rejected(self, params):
        with pytest.raises(ContractViolationError, match="bad density spec"):
            density_from_json({"kind": "gaussian", "params": params})

    def test_json_missing_parameter_rejected(self):
        with pytest.raises(ContractViolationError, match="bad density spec"):
            density_from_json({"kind": "histogram", "params": {"breaks": [0, 1]}})


class TestPathologicalGaussian:
    def test_probability_is_plain_gaussian_off_spike(self):
        d = PathologicalGaussian(1.5)
        g = Gaussian(1.5, 1.0)
        x = np.array([-2.0, 0.0, 1.499999, 2.0])
        assert np.allclose(d.pdf(x), g.pdf(x))

    def test_spike_activates_on_exact_equality(self):
        d = PathologicalGaussian(1.5)
        g = Gaussian(1.5, 1.0)
        assert float(d.pdf(np.array([1.5]))[0]) > float(g.pdf(np.array([1.5]))[0])

    def test_no_spike_for_nonpositive_theta(self):
        d = PathologicalGaussian(-0.5)
        g = Gaussian(-0.5, 1.0)
        assert float(d.pdf(np.array([-0.5]))[0]) == pytest.approx(
            float(g.pdf(np.array([-0.5]))[0]))


class TestHellinger:
    def test_identical_gaussians(self):
        assert hellinger_sq(Gaussian(0, 1), Gaussian(0, 1), QUAD) == 0.0
        assert hellinger_affinity(Gaussian(0, 1), Gaussian(0, 1), QUAD) == 1.0

    def test_gaussian_closed_form(self):
        for theta in (0.5, 1.0, 3.0):
            expected = 1.0 - math.exp(-theta**2 / 8.0)
            assert hellinger_sq(Gaussian(0, 1), Gaussian(theta, 1), QUAD) == \
                pytest.approx(expected, abs=1e-12)

    def test_affinity_paper_value(self):
        assert hellinger_affinity(Gaussian(0, 1), Gaussian(1, 1), QUAD) == \
            pytest.approx(math.exp(-1 / 8), abs=1e-12)

    def test_disjoint_supports(self):
        assert hellinger_sq(Uniform(0, 1), Uniform(2, 3), QUAD) == 1.0
        assert hellinger_affinity(Uniform(0, 1), Uniform(2, 3), QUAD) == 0.0

    @pytest.mark.parametrize("p, q", [
        (Uniform(0, 1), Uniform(2, 3)),
        (Uniform(0, 1), Histogram((1.0, 1.5, 2.0), (0.8, 1.2))),
        (Exponential(1.0, 0.0), Tabulated((-2.0, -1.0, 0.0), (0.0, 1.0, 0.0))),
    ])
    @pytest.mark.parametrize("kwargs", [{}, {"method": "quadrature"},
                                        {"base": Laplace(0.0, 1.0)}],
                             ids=["auto", "quadrature", "base"])
    def test_disjoint_supports_skip_quadrature(self, monkeypatch, p, q, kwargs):
        def fail(*args, **kw):
            raise AssertionError("integrate_1d called on disjoint supports")

        monkeypatch.setattr(densities, "integrate_1d", fail)
        assert hellinger_sq(p, q, QUAD, **kwargs) == 1.0
        assert hellinger_sq(q, p, QUAD, **kwargs) == 1.0

    def test_gaussian_vs_laplace_riemann_oracle(self):
        got = hellinger_affinity(Gaussian(0, 1), Laplace(0, 1), QUAD)
        oracle = riemann_affinity(Gaussian(0, 1), Laplace(0, 1), -30, 30)
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = Gaussian(rng.uniform(-2, 2), rng.uniform(0.5, 2))
            q = Laplace(rng.uniform(-2, 2), rng.uniform(0.5, 2))
            assert abs(hellinger_sq(p, q, QUAD) - hellinger_sq(q, p, QUAD)) < 1e-12

    def test_affinity_plus_h2_is_one_exactly(self):
        p, q = Gaussian(0, 1), Cauchy(0.3, 1.2)
        assert hellinger_sq(p, q, QUAD) + hellinger_affinity(p, q, QUAD) == 1.0

    def test_range(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = Gaussian(rng.uniform(-3, 3), rng.uniform(0.3, 3))
            q = Cauchy(rng.uniform(-3, 3), rng.uniform(0.3, 3))
            h2 = hellinger_sq(p, q, QUAD)
            assert 0.0 <= h2 <= 1.0

    def test_triangle_inequality_on_gaussian_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b, c = (Gaussian(rng.uniform(-3, 3), rng.uniform(0.5, 2))
                       for _ in range(3))
            hab = math.sqrt(hellinger_sq(a, b, QUAD))
            hbc = math.sqrt(hellinger_sq(b, c, QUAD))
            hac = math.sqrt(hellinger_sq(a, c, QUAD))
            assert hac <= hab + hbc + 1e-8

    def test_dominating_measure_invariance(self):
        # same h^2 whether integrated against Lebesgue or re-expressed
        # against a Gaussian base measure
        p, q = Gaussian(0.0, 1.0), Gaussian(1.2, 1.0)
        plain = hellinger_sq(p, q, QUAD, method="quadrature")
        rebased = hellinger_sq(p, q, QUAD, base=Gaussian(0.5, 2.0))
        assert plain == pytest.approx(rebased, abs=1e-8)

    def test_quadrature_matches_closed_form(self):
        p, q = Gaussian(0.0, 1.0), Gaussian(2.0, 1.0)
        closed = hellinger_sq(p, q, QUAD)
        forced = hellinger_sq(p, q, QUAD, method="quadrature")
        assert forced == pytest.approx(closed, abs=1e-9)


class TestProductDensity:
    def test_self_distance_zero(self):
        P = ProductDensity(iid=Gaussian(0, 1), n=7)
        assert product_hellinger_sq(P, P, QUAD) == 0.0

    def test_iid_scaling(self):
        P = ProductDensity(iid=Gaussian(0, 1), n=10)
        Q = ProductDensity(iid=Gaussian(1, 1), n=10)
        expected = 10 * (1 - math.exp(-1 / 8))
        assert product_hellinger_sq(P, Q, QUAD) == pytest.approx(expected, abs=1e-10)

    def test_heterogeneous_sum(self):
        P = ProductDensity(coords=(Gaussian(0, 1), Gaussian(0, 1)))
        Q = ProductDensity(coords=(Gaussian(1, 1), Gaussian(0, 1)))
        expected = 1 - math.exp(-1 / 8)
        assert product_hellinger_sq(P, Q, QUAD) == pytest.approx(expected, abs=1e-10)

    def test_mismatched_n_rejected(self):
        P = ProductDensity(iid=Gaussian(0, 1), n=3)
        Q = ProductDensity(iid=Gaussian(0, 1), n=4)
        with pytest.raises(ContractViolationError):
            product_hellinger_sq(P, Q, QUAD)

    def test_coord_values(self):
        P = ProductDensity(iid=Gaussian(0, 1), n=3)
        X = Sample(np.array([0.0, 1.0, -1.0]))
        assert np.allclose(P.coord_values(X), Gaussian(0, 1).pdf(X.points))


class TestIntegrateOnSupports:
    def _segments(self, monkeypatch, fn, over, kinks_of):
        calls = []
        real_quad = quadrature.integrate.quad

        def spy(f, a, b, **kw):
            calls.append((a, b))
            return real_quad(f, a, b, **kw)

        monkeypatch.setattr(quadrature.integrate, "quad", spy)
        return densities.integrate_on_supports(fn, over, kinks_of, QUAD), calls

    def test_kink_of_a_non_bounding_density_splits_the_range(self, monkeypatch):
        lap = Laplace(0.5, 1.0)
        val, calls = self._segments(monkeypatch, lap.pdf, (Uniform(0, 1),), (lap,))
        assert calls == [(0.0, 0.5), (0.5, 1.0)]
        assert val == pytest.approx(1.0 - math.exp(-0.5), abs=1e-10)

    def test_kinks_outside_the_common_support_are_dropped(self, monkeypatch):
        val, calls = self._segments(monkeypatch, Uniform(0, 1).pdf,
                                    (Uniform(0, 1), Uniform(-1, 2)),
                                    (Laplace(3.0, 1.0),))
        assert calls == [(0.0, 1.0)]
        assert val == pytest.approx(1.0, abs=1e-10)


class TestQuadratureSpec:
    def test_abs_tol_positive(self):
        with pytest.raises(ContractViolationError):
            QuadratureSpec(abs_tol=0.0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_nan_integrand_raises_without_escalating(self, monkeypatch):
        calls = []
        real_quad = quadrature.integrate.quad

        def spy(*args, **kwargs):
            calls.append(kwargs["limit"])
            return real_quad(*args, **kwargs)

        monkeypatch.setattr(quadrature.integrate, "quad", spy)
        with pytest.raises(QuadratureError, match="error estimate nan"):
            integrate_1d(lambda x: np.nan, 0.0, 1.0)
        assert calls == [50]

    def test_nonconvergence_raises(self):
        spec = QuadratureSpec(abs_tol=1e-300, max_subdivisions=60)
        with pytest.raises(QuadratureError), pytest.warns(IntegrationWarning):
            integrate_1d(lambda x: np.cos(50.0 / (np.asarray(x) + 1e-3)),
                         0.0, 1.0, spec)
