import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from rhoest import (Cauchy, ContractViolationError, ExpFamily, Exponential,
                    Gaussian, Histogram, Laplace, PathologicalGaussian,
                    ProductDensity, QuadratureSpec,
                    Sample, Tabulated, Uniform, density_from_json,
                    hellinger_affinity, hellinger_sq, integrate_1d,
                    product_hellinger_sq, shifted)
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


# One density of every kind, with kinks and finite support ends.
EVERY_KIND = [
    Gaussian(0.5, 2.0),
    Cauchy(-1.0, 0.3),
    Laplace(1.0, 0.7),
    Uniform(0.0, 1.0),
    Exponential(2.0, -1.0),
    Histogram((0.0, 0.5, 1.0), (0.8, 1.2)),
    ExpFamily(("x", "x**2", "sin(x)"), (0.5, -0.5, 0.25), 1.0),
    PathologicalGaussian(0.75),
    Tabulated((0.0, 1.0, 2.0), (0.0, 1.0, 0.0)),
]


def probe_points(d):
    """Extreme points, support ends and kinks of ``d`` and their neighbours."""
    marks = [e for e in d.support if math.isfinite(e)] + list(d.breakpoints())
    marks += [getattr(d, "theta", 0.0)]  # PathologicalGaussian's spike
    near = [math.nextafter(m, t) for m in marks for t in (-math.inf, math.inf)]
    return [0.0, -0.0, 5e-324, -1e-300, 1e-150, 37.5, -1e10, 1e300, -1e300,
            1.7e308, -1.7e308, math.inf, -math.inf, *marks, *near]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def rebased_affinity(p, q, base, quad):
    """Oracle for the affinity against another dominating measure ``base``:
    the integral of sqrt((p/b)(q/b)) b, the same value by a different path.
    It breaks down where b underflows faster than p and q, as in the tails
    of a Laplace or Cauchy pair under a Gaussian base."""
    def integrand(x):
        b = base.pdf(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt((p.pdf(x) / b) * (q.pdf(x) / b)) * b
        return np.where(b > 0, r, 0.0)
    return densities.integrate_on_supports(integrand, (p, q), (base,), quad)


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
        for d in EVERY_KIND:
            back = density_from_json(json.loads(json.dumps(d.to_json())))
            assert back == d and back.to_json() == d.to_json()

    @pytest.mark.parametrize("d", EVERY_KIND, ids=lambda d: d.kind)
    def test_rules_list_every_field_in_order(self, d):
        assert list(d.rules) == [f.name for f in dataclasses.fields(d)]
        assert set(d.location) <= set(d.rules)

    def test_scalars_are_kept_as_passed(self):
        d = Gaussian(0, 2)
        assert json.dumps(d.to_json()) == \
            '{"kind": "gaussian", "params": {"mean": 0, "sd": 2}}'
        assert d == Gaussian(0.0, 2.0) and hash(d) == hash(Gaussian(0.0, 2.0))

    def test_histogram_mass_validation(self):
        with pytest.raises(ContractViolationError):
            Histogram((0.0, 1.0), (0.5,))

    def test_shifted_matches_translation(self):
        # Quarter steps, a = 2.5 and the parameters of EVERY_KIND are exact
        # in binary, so x + a and each moved parameter are exact and the
        # translated pdf must be equal, not just close.
        x = np.arange(-40, 41) / 4.0
        for d in EVERY_KIND:
            if not d.location:
                with pytest.raises(ContractViolationError, match="cannot shift"):
                    shifted(d, 2.5)
                continue
            s = shifted(d, 2.5)
            assert type(s) is type(d) and s != d
            assert np.array_equal(s.pdf(x + 2.5), d.pdf(x)), d.kind
            assert shifted(d, 0.0) is d

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
        lambda: PathologicalGaussian(math.nan),
        lambda: PathologicalGaussian(math.inf),
        lambda: ExpFamily(("x",), (math.nan,), 0.0, 0.0, 1.0),
        lambda: ExpFamily(("x",), (-math.inf,), 0.0),
        lambda: ExpFamily(("x",), (0.0,), math.nan, 0.0, 1.0),
        lambda: ExpFamily(("x",), (0.0,), math.inf, 0.0, 1.0),
        lambda: ExpFamily(("x",), (0.0,), 0.0, 1.0, 0.0),
        lambda: ExpFamily(("x",), (0.0,), 0.0, 1.0, 1.0),
        lambda: ExpFamily(("x",), (0.0,), 0.0, math.nan, 1.0),
        lambda: ExpFamily(("x",), (0.0,), 0.0, math.inf, math.inf),
        lambda: Gaussian(True, 1.0),
        lambda: Gaussian(0.0, True),
        lambda: Exponential(1.0, np.bool_(False)),
        lambda: Cauchy("0", 1.0),
        lambda: Uniform(0.0, "1"),
        lambda: PathologicalGaussian("0.5"),
        lambda: Histogram((0.0, 1.0), ("1",)),
        lambda: Histogram(("0", "1"), (1.0,)),
        lambda: Histogram((0.0, 1.0), 1.0),
        lambda: Tabulated((0.0, 1.0), ("x", 1.0)),
        lambda: Tabulated((0.0, 1.0), (math.inf, 1.0)),
        lambda: ExpFamily(("x",), ("0",), 0.0),
        lambda: ExpFamily(("x",), (True,), 0.0),
        lambda: ExpFamily(("x",), (0.0,), 0.0, "a", "b"),
        lambda: ExpFamily(("x",), (0.0,), 0.0, 0.0, "1"),
        lambda: ExpFamily("x", (0.0,), 0.0),
        lambda: ExpFamily(("x+",), (0.0,), 0.0),
        lambda: ExpFamily((5,), (0.0,), 0.0),
        lambda: ExpFamily(("x(1)",), (0.0,), 0.0, 0.0, 1.0),
        lambda: ExpFamily(("sin",), (0.0,), 0.0, 0.0, 1.0),
        lambda: ExpFamily(("sin(x, x)",), (0.0,), 0.0, 0.0, 1.0),
        lambda: ExpFamily(("x.real",), (0.0,), 0.0, 0.0, 1.0),
        lambda: ExpFamily(("True * x",), (0.0,), 0.0, 0.0, 1.0),
    ], ids=["tabulated-value", "histogram-height", "histogram-break",
            "histogram-infinite-break", "gaussian-nan-mean",
            "gaussian-infinite-mean", "cauchy-nan-loc", "laplace-infinite-loc",
            "exponential-nan-shift", "tabulated-decreasing-grid",
            "tabulated-repeated-grid", "tabulated-nan-grid",
            "tabulated-infinite-grid", "gaussian-infinite-sd",
            "cauchy-infinite-scale", "laplace-infinite-scale",
            "exponential-infinite-rate", "uniform-infinite-end",
            "pathological-nan-theta", "pathological-infinite-theta",
            "exp-family-nan-coeff", "exp-family-infinite-coeff",
            "exp-family-nan-log-norm", "exp-family-infinite-log-norm",
            "exp-family-reversed-ends", "exp-family-equal-ends",
            "exp-family-nan-end", "exp-family-both-ends-infinite",
            "gaussian-bool-mean", "gaussian-bool-sd", "exponential-numpy-bool",
            "cauchy-string-loc", "uniform-string-end", "pathological-string-theta",
            "histogram-string-height", "histogram-string-breaks",
            "histogram-scalar-heights", "tabulated-string-value",
            "tabulated-infinite-value", "exp-family-string-coeff",
            "exp-family-bool-coeff", "exp-family-string-ends",
            "exp-family-string-hi", "exp-family-string-basis",
            "exp-family-basis-syntax", "exp-family-basis-not-text",
            "exp-family-basis-call-of-x", "exp-family-basis-bare-function",
            "exp-family-basis-two-arguments", "exp-family-basis-attribute",
            "exp-family-basis-bool-constant"])
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

    @pytest.mark.parametrize("d", EVERY_KIND, ids=lambda d: d.kind)
    def test_pdf_of_a_float_keeps_the_array_bits(self, d):
        for x in probe_points(d):
            with np.errstate(all="ignore"):
                want = d.pdf(np.array([x]))[0]
                for node in (x, np.float64(x)):
                    assert same_bits(d.pdf(node), want), (node, d.pdf(node), want)


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

    def test_far_theta_off_spike(self):
        # The base ratio exp(40 x - 800) overflows and the Gaussian factor
        # underflows near x = 40; their product is computed in one exponent.
        d, g = PathologicalGaussian(40.0), Gaussian(40.0, 1.0)
        x = np.array([0.0, 38.0, 39.75, 40.5, 42.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = d.pdf(x)
            assert d.pdf(40.0) == math.inf
        assert np.allclose(got, g.pdf(x), rtol=1e-12, atol=0.0)
        assert got[0] == 0.0 and np.all(got[1:] > 0.0)


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
    @pytest.mark.parametrize("kwargs", [{}, {"method": "quadrature"}],
                             ids=["auto", "quadrature"])
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
        rebased = 1.0 - rebased_affinity(p, q, Gaussian(0.5, 2.0), QUAD)
        assert plain == pytest.approx(rebased, abs=1e-8)

    @pytest.mark.parametrize("family", [Gaussian, Laplace, Cauchy],
                             ids=lambda f: f.__name__)
    def test_closed_forms_match_tight_quadrature(self, family, monkeypatch):
        rng = np.random.default_rng(21)
        pairs = [tuple(family(rng.uniform(-3, 3), rng.uniform(0.5, 2))
                       for _ in range(2)) for _ in range(20)]
        pairs += [(family(0.0, 1.0), family(0.0, 1.0 + 1e-9)),
                  (family(0.0, 0.5), family(0.0, 2.0)),
                  (family(-1.0, 0.8), family(1.5, 0.8)),
                  (family(-3.0, 0.5), family(3.0, 0.5000001))]
        tight = QuadratureSpec(abs_tol=1e-13)
        integrated = [hellinger_affinity(p, q, tight, method="quadrature")
                      for p, q in pairs]

        def fail(*args, **kw):
            raise AssertionError("integrate_1d called for a closed-form pair")

        monkeypatch.setattr(densities, "integrate_1d", fail)
        for (p, q), want in zip(pairs, integrated):
            assert hellinger_affinity(p, q, tight) == pytest.approx(want, abs=1e-13)
            assert hellinger_affinity(p, q) == hellinger_affinity(q, p)

    @pytest.mark.parametrize("family", [Laplace, Cauchy], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("k", [1e-200, 1e200])
    def test_closed_forms_hold_at_extreme_scales(self, family, k):
        want = hellinger_affinity(family(0.0, 1.0), family(1.0, 2.0))
        assert hellinger_affinity(family(0.0, k), family(k, 2.0 * k)) == \
            pytest.approx(want, rel=1e-12)

    def test_cauchy_affinity_matches_ellipkm1(self):
        # c / AGM(1, c) against (2 / pi) c K(1 - c^2) from scipy's ellipkm1,
        # on c = 2 sqrt(b1 b2) / hypot(b1 + b2, d) from 1e-150 to 1.
        from scipy.special import ellipkm1
        rng = np.random.default_rng(16)
        cs = []
        for _ in range(3000):
            b1 = float(10.0 ** rng.uniform(-3.0, 3.0))
            b2 = b1 * (1.0 + float(10.0 ** rng.uniform(-12.0, 3.0)))
            d = float(10.0 ** rng.uniform(-8.0, 150.0)) * rng.choice([0.0, 1.0])
            c = 2.0 * math.sqrt(b1) * math.sqrt(b2) / math.hypot(b1 + b2, d)
            if c < 1e-150:
                continue
            want = 2.0 / math.pi * c * float(ellipkm1(c * c))
            got = densities._closed_form_affinity(Cauchy(0.0, b1), Cauchy(d, b2))
            assert abs(got - want) <= 8 * math.ulp(want), (b1, b2, d)
            cs.append(c)
        assert min(cs) < 1e-140 and max(cs) > 1.0 - 1e-12

    @pytest.mark.parametrize("p, q", [
        (Cauchy(0.0, 1.0), Cauchy(1e200, 2.0)),
        (Cauchy(-1e300, 0.5), Cauchy(1e300, 3.0)),
        (Cauchy(0.0, 1e-300), Cauchy(1.0, 1e10)),
    ])
    def test_cauchy_affinity_where_c_squared_underflows(self, p, q, monkeypatch):
        # K(1 - c^2) = log(4 / c) to within c^2 log(1 / c) as c -> 0.
        def fail(*args, **kw):
            raise AssertionError("integrate_1d called for a closed-form pair")

        monkeypatch.setattr(densities, "integrate_1d", fail)
        c = (2.0 * math.sqrt(p.scale) * math.sqrt(q.scale)
             / math.hypot(p.scale + q.scale, p.loc - q.loc))
        assert 0.0 < c < 1e-154
        got = hellinger_affinity(p, q)
        assert got == pytest.approx(2.0 / math.pi * c * math.log(4.0 / c), rel=1e-15)
        assert hellinger_affinity(q, p) == got

    def test_cauchy_affinity_of_an_underflowed_c_is_zero(self):
        # d overflows to inf, so c = 0; the affinity, about c log(4 / c), is 0.
        p, q = Cauchy(-1e308, 1.0), Cauchy(1e308, 1.0)
        assert densities._closed_form_affinity(p, q) == 0.0
        assert hellinger_sq(p, q) == 1.0

    def test_gaussian_pair_beyond_the_closed_form_is_integrated(self):
        # sd^2 underflows to 0, so the closed form would divide by zero.
        p, q = Gaussian(0.0, 1e-170), Gaussian(1.0, 1e-170)
        assert hellinger_sq(p, q, QUAD) == 1.0

    def test_equal_sd_gaussian_closed_form_bits_unchanged(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m1, m2, sd = (float(x) for x in rng.uniform([-5, -5, 0.05], [5, 5, 5]))
            want = math.exp(-((m1 - m2) ** 2) / (8.0 * sd**2))
            assert hellinger_affinity(Gaussian(m1, sd), Gaussian(m2, sd)) == want

    def test_unequal_sd_gaussians_exact_where_loose_quadrature_is_not(self):
        # At abs_tol=1e-6 QUADPACK reports a 6.5e-7 error estimate here but
        # lands 3.5e-6 from the exact value.
        p, q = Gaussian(2.2739, 1.3325), Gaussian(-2.5722, 1.8862)
        loose, tight = QuadratureSpec(abs_tol=1e-6), QuadratureSpec(abs_tol=1e-13)
        exact = hellinger_sq(p, q, tight, method="quadrature")
        assert abs(hellinger_sq(p, q, loose, method="quadrature") - exact) > 1e-6
        assert hellinger_sq(p, q, loose) == pytest.approx(exact, abs=1e-14)

    def test_quadrature_matches_closed_form(self):
        p, q = Gaussian(0.0, 1.0), Gaussian(2.0, 1.0)
        closed = hellinger_sq(p, q, QUAD)
        forced = hellinger_sq(p, q, QUAD, method="quadrature")
        assert forced == pytest.approx(closed, abs=1e-9)

    @pytest.mark.xfail(strict=True, reason=(
        "h^2 is scale-invariant, but QUADPACK misses a peak of width 1e-5 "
        "on the infinite segments and reports an error inside tolerance"))
    def test_narrow_window_mass_is_not_lost(self):
        unit = hellinger_sq(Gaussian(0, 1), Laplace(0, 2), QUAD)
        narrow = hellinger_sq(Gaussian(0, 1e-5), Laplace(0, 2e-5), QUAD)
        assert narrow == pytest.approx(unit, abs=1e-6)


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

    @pytest.mark.parametrize("P", [ProductDensity(iid=Gaussian(0, 1), n=3),
                                   ProductDensity(coords=[Gaussian(0, 1)] * 3)],
                             ids=["iid", "coords"])
    def test_pair_sample_rejected(self, P):
        # A 1-D marginal evaluated on (n, 2) points would give an (n, 2) array.
        X = Sample(np.array([[0.1, 0.2], [0.3, -0.4], [1.0, 0.5]]), kind="pair")
        with pytest.raises(ContractViolationError, match="scalar sample"):
            P.coord_values(X)

    @pytest.mark.parametrize("kwargs", [
        {"iid": "gaussian", "n": 3}, {"coords": [Gaussian(0, 1), 1.0]},
        {"coords": []}, {"iid": Gaussian(0, 1)},
        {"iid": Gaussian(0, 1), "coords": [Gaussian(0, 1)]}])
    def test_bad_coordinates_rejected(self, kwargs):
        with pytest.raises(ContractViolationError):
            ProductDensity(**kwargs)

    @pytest.mark.parametrize("d", EVERY_KIND, ids=lambda d: d.kind)
    def test_non_iid_coord_values_match_iid_and_slices_bitwise(self, d):
        pts = [x for x in probe_points(d) if math.isfinite(x)]
        X = Sample(np.concatenate([pts, np.random.default_rng(3).normal(0, 3, 200)]))
        with np.errstate(all="ignore"):
            iid = ProductDensity(iid=d, n=X.n).coord_values(X)
            coords = ProductDensity(coords=[d] * X.n).coord_values(X)
            slices = np.array([float(np.asarray(d.pdf(X.points[i:i + 1]))[0])
                               for i in range(X.n)])
        assert same_bits(coords, iid)
        assert same_bits(coords, slices)


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

    @staticmethod
    def _limits(monkeypatch):
        calls = []
        real_quad = quadrature.integrate.quad

        def spy(*args, **kwargs):
            calls.append(kwargs["limit"])
            return real_quad(*args, **kwargs)

        monkeypatch.setattr(quadrature.integrate, "quad", spy)
        return calls

    def test_nan_integrand_raises_without_escalating(self, monkeypatch):
        calls = self._limits(monkeypatch)
        with pytest.raises(QuadratureError, match="error estimate nan"):
            integrate_1d(lambda x: np.nan, 0.0, 1.0)
        assert calls == [50]

    def test_nonconvergence_raises(self):
        spec = QuadratureSpec(abs_tol=1e-300, max_subdivisions=60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="probably divergent"):
                integrate_1d(lambda x: np.cos(50.0 / (np.asarray(x) + 1e-3)),
                             0.0, 1.0, spec)

    def test_escalation_that_converges_emits_no_warning(self, monkeypatch):
        calls = self._limits(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = integrate_1d(lambda x: math.cos(200.0 * x), 0.0, 3.0,
                               QuadratureSpec(abs_tol=1e-10))
        assert calls == [50, 500]
        assert val == pytest.approx(math.sin(600.0) / 200.0, abs=1e-10)

    @pytest.mark.parametrize("budget", [1, 7])
    def test_budget_below_the_first_limit_is_enforced(self, monkeypatch, budget):
        calls = self._limits(monkeypatch)
        with pytest.raises(QuadratureError, match=f"at {budget} subdivisions"):
            integrate_1d(lambda x: math.cos(20.0 * x), 0.0, 3.0,
                         QuadratureSpec(abs_tol=1e-10, max_subdivisions=budget))
        assert calls == [budget]

    def test_budget_below_the_first_limit_can_converge(self, monkeypatch):
        calls = self._limits(monkeypatch)
        val = integrate_1d(lambda x: math.cos(20.0 * x), 0.0, 3.0,
                           QuadratureSpec(abs_tol=1e-10, max_subdivisions=49))
        assert calls == [49]
        assert val == pytest.approx(math.sin(60.0) / 20.0, abs=1e-10)
