import math
import re
import warnings

import numpy as np
import pytest

from rhoest import (Cauchy, ContractViolationError, Gaussian,
                    QuadratureSpec, RegressionFunction, RegressionModel,
                    Sample, Uniform, build_regression_family,
                    check_identifiability, d_s_loss, dimension_bound_vc,
                    eta_bar_finite, fit_regression, kernel_constants)

QUAD = QuadratureSpec(abs_tol=1e-10)
K2 = kernel_constants("psi2")


def linear_functions(thetas):
    return [RegressionFunction(lambda w, _t=float(t): _t * w,
                               label=f"theta={t:g}") for t in thetas]


def pair_sample(rng, n, theta, error):
    w = rng.uniform(-2, 2, n)
    y = theta * w + error.sample(rng, n)
    return Sample(np.column_stack([w, y]), kind="pair")


class TestBuild:
    def test_single_zero_function(self):
        g0 = RegressionFunction(lambda w: np.zeros_like(w), label="zero")
        model = RegressionModel(Gaussian(0, 1), [g0], vc_index_f=1)
        coll = build_regression_family([model], n=4)
        assert len(coll.union_family) == 1
        X = Sample(np.array([[0.0, 1.0], [1.0, -0.5], [2.0, 0.0], [0.5, 2.0]]),
                   kind="pair")
        vals = coll.union_family[0].coord_values(X)
        assert np.allclose(vals, Gaussian(0, 1).pdf(X.points[:, 1]))

    def test_vc_scaling(self):
        model = RegressionModel(Gaussian(0, 1), linear_functions(np.linspace(0, 2, 21)),
                                vc_index_f=3)
        coll = build_regression_family([model], n=1000)
        # Pair VC index 9.41 V; at n = 1000 the n/6 cap does not bind.
        bound = dimension_bound_vc(9.41 * 3, 1000)
        assert coll.models[0].dim_bound == bound < 1000 / 6

    def test_pointwise_entry_oracle(self):
        rng = np.random.default_rng(0)
        model = RegressionModel(Cauchy(0, 1), linear_functions([0.5, 1.5]),
                                vc_index_f=3)
        coll = build_regression_family([model], n=6)
        X = Sample(np.column_stack([rng.uniform(-1, 1, 6), rng.normal(0, 1, 6)]),
                   kind="pair")
        w, y = X.points[:, 0], X.points[:, 1]
        for idx, g in enumerate(model.functions):
            got = coll.union_family[idx].coord_values(X)
            want = Cauchy(0, 1).pdf(y - g(w))
            assert got.tobytes() == want.tobytes()

    def test_entry_rejects_a_sample_of_another_shape(self):
        model = RegressionModel(Gaussian(0, 1), linear_functions([0.0]),
                                vc_index_f=1)
        entry = build_regression_family([model], n=3).union_family[0]
        for X in (Sample(np.array([0.0, 1.0, 2.0])),
                  Sample(np.zeros((4, 2)), kind="pair")):
            with pytest.raises(ContractViolationError):
                entry.coord_values(X)

    def test_same_label_functions_stay_distinct(self):
        # Eleven slopes that all print as theta=1000; the design spreads w
        # far enough that neighbouring slopes are 10 to 20 error sds apart.
        slopes = [1000.0 + k * 1e-7 for k in range(11)]
        functions = linear_functions(slopes)
        assert len({g.label for g in functions}) == 1
        model = RegressionModel(Gaussian(0, 1), functions, vc_index_f=3)
        coll = build_regression_family([model], n=200)
        assert len(coll.union_family) == 11
        rng = np.random.default_rng(7)
        w = rng.uniform(1e8, 2e8, 200)
        X = Sample(np.column_stack([w, slopes[4] * w + rng.normal(0, 1, 200)]),
                   kind="pair")
        fit = fit_regression(X, coll)
        assert fit.f_hat is functions[4]

    def test_shared_pair_merges_across_models(self):
        g0, g1, g2 = linear_functions([0.0, 0.5, 1.0])
        half = math.log(2.0)
        models = [RegressionModel(Gaussian(0, 1), [g0, g1], vc_index_f=3,
                                  delta_weight=half),
                  RegressionModel(Gaussian(0, 1), [g1, g2], vc_index_f=3,
                                  delta_weight=half)]
        coll = build_regression_family(models, n=5)
        assert len(coll.union_family) == 3
        assert [entry.g for entry in coll.union_family] == [g0, g1, g2]
        assert coll.membership == [(0,), (0, 1), (1,)]

    def test_no_product_hellinger_for_pair_entries(self):
        model = RegressionModel(Gaussian(0, 1), linear_functions([0.0, 1.0]),
                                vc_index_f=1)
        fam = build_regression_family([model], n=5).union_family
        with pytest.raises(ContractViolationError):
            eta_bar_finite(fam, K2)

    def test_empty_function_menu(self):
        with pytest.raises(ContractViolationError):
            RegressionModel(Gaussian(0, 1), [], vc_index_f=3)

    def test_multimodal_warns(self):
        g0 = RegressionFunction(lambda w: np.zeros_like(w), label="zero")
        with pytest.warns(UserWarning):
            RegressionModel(Gaussian(0, 1), [g0], vc_index_f=1,
                            mode_multiplier=2.0)


class TestRegressionFunction:
    W = np.linspace(-1.0, 1.0, 5)

    @pytest.mark.parametrize("fn", [lambda w: w[:, None],
                                    lambda w: np.array([1.0, 2.0])])
    def test_value_of_another_shape_rejected(self, fn):
        g = RegressionFunction(fn, label="bad g")
        with pytest.raises(ContractViolationError, match="'bad g' maps w of shape"):
            g(self.W)
        model = RegressionModel(Gaussian(0, 1), [g], vc_index_f=1)
        coll = build_regression_family([model], n=5)
        X = Sample(np.column_stack([self.W, self.W]), kind="pair")
        with pytest.raises(ContractViolationError, match="'bad g'"):
            fit_regression(X, coll)

    @pytest.mark.parametrize("value", ["1.5x", object(), {"w": 1.0}])
    def test_value_that_is_not_a_number_rejected(self, value):
        g = RegressionFunction(lambda w: value, label="bad g")
        with pytest.raises(ContractViolationError, match="'bad g' maps w to .* not numbers"):
            g(self.W)

    @pytest.mark.parametrize("fn", [lambda w: None, lambda w: np.where(w > 0, np.nan, w)])
    def test_nan_values_rejected_by_name(self, fn):
        g = RegressionFunction(fn, label="none g")
        with pytest.raises(ContractViolationError, match="'none g' maps w to NaN"):
            g(self.W)
        model = RegressionModel(Gaussian(0, 1), [g], vc_index_f=1)
        coll = build_regression_family([model], n=5)
        X = Sample(np.column_stack([self.W, self.W]), kind="pair")
        with pytest.raises(ContractViolationError, match="'none g' maps w to NaN"):
            fit_regression(X, coll)

    def test_scalar_and_non_finite_values_pass(self):
        assert RegressionFunction(lambda w: 2.0, label="constant")(self.W) == 2.0
        steep = RegressionFunction(lambda w: 1e308 * w * 10.0, label="steep")
        with np.errstate(over="ignore"):
            values = steep(self.W)
        assert values.tolist() == [-np.inf, -np.inf, 0.0, np.inf, np.inf]


class TestFit:
    def test_degenerate_single_entry(self):
        g0 = RegressionFunction(lambda w: np.zeros_like(w), label="zero")
        model = RegressionModel(Gaussian(0, 1), [g0], vc_index_f=1)
        coll = build_regression_family([model], n=3)
        X = Sample(np.array([[0.0, 0.1], [1.0, -0.2], [2.0, 0.3]]), kind="pair")
        fit = fit_regression(X, coll)
        assert fit.f_hat.label == "zero"
        assert fit.s_hat == Gaussian(0, 1)

    def test_scalar_sample_rejected(self):
        g0 = RegressionFunction(lambda w: np.zeros_like(w), label="zero")
        model = RegressionModel(Gaussian(0, 1), [g0], vc_index_f=1)
        coll = build_regression_family([model], n=3)
        with pytest.raises(ContractViolationError):
            fit_regression(Sample(np.array([0.0, 1.0, 2.0])), coll)

    def test_zero_function_recovered(self):
        hits = 0
        reps = 20
        for rep in range(reps):
            rng = np.random.default_rng(300 + rep)
            model = RegressionModel(Gaussian(0, 1),
                                    linear_functions(np.arange(-1, 1.01, 0.25)),
                                    vc_index_f=3)
            coll = build_regression_family([model], n=300)
            X = pair_sample(rng, 300, 0.0, Gaussian(0, 1))
            fit = fit_regression(X, coll)
            hits += fit.f_hat.label == "theta=0"
        assert hits / reps >= 0.95


class TestDsLoss:
    W = np.linspace(-1, 1, 5)

    @pytest.mark.parametrize("bad, message", [
        (lambda w: w[:, None], " maps w of shape (5,) to shape (5, 1)"),
        (lambda w: np.array([1.0, 2.0]), " maps w of shape (5,) to shape (2,)"),
        (lambda w: "w", " maps w to str values, not numbers"),
        (RegressionFunction(lambda w: "w", label="text"),
         ": regression function 'text' maps w to str values, not numbers")])
    def test_operand_values_checked_at_entry(self, bad, message):
        good = lambda w: 0.5 * w
        for name, g, gp in (("g", bad, good), ("gp", good, bad)):
            with pytest.raises(ContractViolationError, match=re.escape(name + message)):
                d_s_loss(Gaussian(0, 1), g, gp, self.W, QUAD)

    def test_infinite_shift_is_a_loss_of_one(self):
        far = lambda w: np.where(w > 0.0, np.inf, np.where(w < -0.6, -np.inf, 0.0))
        zero = lambda w: np.zeros_like(w)
        # Shifts -inf, 0, 0, +inf, +inf at the five design points.
        assert d_s_loss(Gaussian(0, 1), far, zero, self.W, QUAD) == 3.0 / 5.0
        assert d_s_loss(Gaussian(0, 1), zero, far, self.W, QUAD) == 3.0 / 5.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_equal_infinities_leave_no_shift(self, sign):
        inf = lambda w: np.full_like(w, sign * np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match=re.escape("g - gp is NaN")):
                d_s_loss(Gaussian(0, 1), inf, inf, self.W, QUAD)

    @pytest.mark.parametrize("nan, message", [
        (lambda w: np.full_like(w, np.nan), " maps w to NaN"),
        (lambda w: None, " maps w to NaN"),
        (RegressionFunction(lambda w: None, label="none"),
         ": regression function 'none' maps w to NaN")])
    def test_nan_values_name_their_function(self, nan, message):
        good = lambda w: 0.5 * w
        for name, g, gp in (("g", nan, good), ("gp", good, nan)):
            with pytest.raises(ContractViolationError, match=re.escape(name + message)):
                d_s_loss(Gaussian(0, 1), g, gp, self.W, QUAD)

    def test_constant_functions(self):
        got = d_s_loss(Gaussian(0, 1), lambda w: 0.0, lambda w: 0.8, self.W, QUAD)
        assert got == d_s_loss(Gaussian(0, 1), lambda w: np.zeros_like(w),
                               lambda w: np.full_like(w, 0.8), self.W, QUAD)

    def test_equal_functions(self):
        g = lambda w: w
        assert d_s_loss(Gaussian(0, 1), g, g, np.linspace(-1, 1, 5), QUAD) == 0.0

    def test_constant_shift_closed_form(self):
        c = 0.8
        got = d_s_loss(Gaussian(0, 1), lambda w: np.zeros_like(w),
                       lambda w: np.full_like(w, c), np.linspace(-1, 1, 7), QUAD)
        assert got == pytest.approx(1 - math.exp(-c * c / 8), abs=1e-10)

    def test_uniform_overlap(self):
        got = d_s_loss(Uniform(0, 1), lambda w: np.zeros_like(w),
                       lambda w: np.full_like(w, 0.5), np.array([0.0]), QUAD)
        assert got == pytest.approx(0.5, abs=1e-8)

    def test_translation_invariance(self):
        w = np.linspace(-1, 1, 6)
        g = lambda x: x
        gp = lambda x: 0.5 * x + 0.3
        base = d_s_loss(Gaussian(0, 1), g, gp, w, QUAD)
        shiftd = d_s_loss(Gaussian(0, 1), lambda x: g(x) + 2.0,
                          lambda x: gp(x) + 2.0, w, QUAD)
        assert base == pytest.approx(shiftd, abs=1e-9)

    def test_pseudometric(self):
        w = np.linspace(-1, 1, 5)
        fns = [lambda x: 0.0 * x, lambda x: 0.5 * x, lambda x: x]
        s = Gaussian(0, 1)
        d01 = math.sqrt(d_s_loss(s, fns[0], fns[1], w, QUAD))
        d12 = math.sqrt(d_s_loss(s, fns[1], fns[2], w, QUAD))
        d02 = math.sqrt(d_s_loss(s, fns[0], fns[2], w, QUAD))
        assert d02 <= d01 + d12 + 1e-8
        assert d_s_loss(s, fns[0], fns[2], w, QUAD) == \
            pytest.approx(d_s_loss(s, fns[2], fns[0], w, QUAD), abs=1e-12)


class TestIdentifiability:
    GRID = np.arange(-2.0, 2.01, 0.25)

    def test_identical_pair_convention(self):
        out = check_identifiability([Gaussian(0, 1), Gaussian(0, 1)],
                                    self.GRID, QUAD)
        assert out["pairs"][(0, 1)] == 1.0

    def test_centered_gaussians_minimized_at_zero_shift(self):
        out = check_identifiability([Gaussian(0, 1), Gaussian(0, 2)],
                                    self.GRID, QUAD)
        assert out["pairs"][(0, 1)] == pytest.approx(1.0, abs=1e-6)

    def test_pair_matched_by_a_shift_is_flagged(self):
        # Gaussian(0, 1) shifted by 1 is Gaussian(1, 1): A is infinite.
        out = check_identifiability([Gaussian(0, 1), Gaussian(1, 1)], self.GRID, QUAD)
        assert out["flagged"] == [(0, 1)] and out["ceiling"] == 50.0

    def test_uniform_pair_finite(self):
        out = check_identifiability([Uniform(0, 1), Uniform(0, 2)],
                                    self.GRID, QUAD)
        assert math.isfinite(out["max_ratio"])
        assert out["max_ratio"] >= 1.0

    def test_asymmetric_grid_rejected(self):
        with pytest.raises(ContractViolationError):
            check_identifiability([Gaussian(0, 1), Gaussian(1, 1)],
                                  [0.0, 0.5], QUAD)
