import itertools
import math

import numpy as np
import pytest

from rhoest import (CandidateSet, ContractViolationError, DensityFamily,
                    Gaussian, Histogram, Penalty, ProductDensity, RhoFit,
                    Sample, SimplexPoint, criterion, kernel_constants,
                    rho_estimate, t_mix, t_statistic, upsilon, upsilon_all)

K2 = kernel_constants("psi2")


def discrete_density(masses):
    """Mass vector on the points {0, 1, 2} as a unit-width histogram."""
    return Histogram((-0.5, 0.5, 1.5, 2.5), tuple(masses))


def oracle_psi(kernel, num, den):
    """Reference psi(sqrt(num/den)) through the explicit ratio conventions."""
    if num == den:
        return 0.0
    if den == 0.0:
        return 1.0
    if num == 0.0:
        return -1.0
    x = math.sqrt(num / den)
    if kernel.id == "psi1":
        return (x - 1.0) / math.sqrt(x * x + 1.0)
    return (x - 1.0) / (x + 1.0)


def oracle_rho(points, families, pen_values, kernel):
    """Naive double-loop reimplementation of the criterion scan."""
    n = len(points)
    size = len(families)
    T = [[sum(oracle_psi(kernel, families[k].pdf(np.array([points[i]]))[0],
                         families[j].pdf(np.array([points[i]]))[0])
              for i in range(n))
          for k in range(size)] for j in range(size)]
    ups = [max(T[j][k] - pen_values[k] for k in range(size)) + pen_values[j]
           for j in range(size)]
    chosen = min(range(size), key=lambda j: (ups[j], j))
    return chosen, ups


class TestTStatistic:
    def test_self_comparison_zero(self):
        q = ProductDensity(iid=Gaussian(0, 1), n=5)
        X = Sample(np.random.default_rng(0).normal(0, 1, 5))
        assert t_statistic(X, q, q, K2) == 0.0

    def test_zero_density_convention(self):
        q = ProductDensity(iid=discrete_density((1.0, 0.0, 0.0)), n=1)
        qp = ProductDensity(iid=discrete_density((0.0, 1.0, 0.0)), n=1)
        X = Sample(np.array([1.0]))       # q = 0 < q' there
        assert t_statistic(X, q, qp, K2) == 1.0
        assert t_statistic(X, qp, q, K2) == -1.0

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(1)
        q = ProductDensity(iid=Gaussian(0, 1), n=20)
        qp = ProductDensity(iid=Gaussian(0.7, 1.3), n=20)
        X = Sample(rng.normal(0, 2, 20))
        assert t_statistic(X, q, qp, K2) + t_statistic(X, qp, q, K2) == 0.0

    def test_bounded_by_n(self):
        rng = np.random.default_rng(2)
        q = ProductDensity(iid=Gaussian(-3, 0.2), n=15)
        qp = ProductDensity(iid=Gaussian(3, 0.2), n=15)
        X = Sample(rng.normal(3, 0.2, 15))
        assert abs(t_statistic(X, q, qp, K2)) <= 15.0


class TestUpsilon:
    def test_singleton_family(self):
        q = ProductDensity(iid=Gaussian(0, 1), n=4)
        fam = DensityFamily([q])
        X = Sample(np.array([0.1, -0.2, 0.3, 0.0]))
        assert upsilon(X, q, fam, None, K2) == 0.0

    def test_nonnegative_without_penalty(self):
        rng = np.random.default_rng(3)
        fam = DensityFamily([ProductDensity(iid=Gaussian(m, 1), n=10)
                             for m in (-1.0, 0.0, 1.0)])
        X = Sample(rng.normal(0, 1, 10))
        for q in fam.entries:
            assert upsilon(X, q, fam, None, K2) >= 0.0

    def test_matches_naive_oracle_on_histograms(self):
        dens = [discrete_density(m) for m in
                ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.25, 0.25, 0.5))]
        fam = DensityFamily([ProductDensity(iid=d, n=2) for d in dens])
        pen = Penalty({0: 0.3, 2: 1.1})
        points = [0.0, 2.0]
        X = Sample(np.array(points))
        _, oracle_ups = oracle_rho(points, dens, [0.3, 0.0, 1.1], K2)
        got = upsilon_all(X, fam, pen, K2)
        assert np.allclose(got, oracle_ups, atol=1e-12)


    def test_nan_density_values_rejected(self):
        class NaNRightHalf(Gaussian):
            def pdf(self, x):
                return np.where(np.asarray(x) > 0.0, np.nan, super().pdf(x))

        fam = DensityFamily([ProductDensity(iid=Gaussian(0.0, 1.0), n=3),
                             ProductDensity(iid=NaNRightHalf(0.5, 1.0), n=3)])
        X = Sample(np.array([-1.0, 0.5, 1.0]))
        with pytest.raises(ContractViolationError, match="square roots"):
            upsilon_all(X, fam, None, K2)
        with pytest.raises(ContractViolationError, match="square roots"):
            rho_estimate(X, fam)


class TestPenalty:
    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_negative_or_nan_rejected(self, value):
        with pytest.raises(ContractViolationError, match="nonnegative"):
            Penalty({0: value})

    @pytest.mark.parametrize("key", [2, 99, -1, "0"])
    def test_index_outside_family_rejected(self, key):
        fam = DensityFamily([ProductDensity(iid=Gaussian(m, 1.0), n=3)
                             for m in (0.0, 1.0)])
        X = Sample(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ContractViolationError, match="penalty index"):
            rho_estimate(X, fam, Penalty({key: 1.0}))

    @pytest.mark.parametrize("key", [True, False, np.True_, 1.0, np.float64(0.0),
                                     None, (0,)])
    def test_non_integer_index_rejected(self, key):
        # A bool index would set every entry as a numpy mask, a float one
        # would raise IndexError.
        with pytest.raises(ContractViolationError, match="penalty index"):
            Penalty({key: 1.0})

    @pytest.mark.parametrize("value", [True, False, np.True_, "1", None, 1j])
    def test_non_real_value_rejected(self, value):
        with pytest.raises(ContractViolationError, match="nonnegative"):
            Penalty({0: value})

    def test_integer_and_real_types_accepted(self):
        pen = Penalty({np.int64(0): np.float64(0.5), 1: 2, np.int32(2): math.inf})
        assert pen.vector(3).tolist() == [0.5, 2.0, math.inf]
        assert Penalty({1: 0.0}).vector(3).tolist() == [0.0, 0.0, 0.0]


class FixedValues:
    """A family entry whose density values at every sample are given."""

    def __init__(self, values):
        self.values = np.array(values, dtype=float)
        self.n = len(self.values)

    def coord_values(self, X):
        return self.values.copy()

    def key(self):
        return ("fixed", id(self))


class TestRootsCheckedOncePerCall:
    """A NaN root raises wherever it sits, although the roots are checked
    once per call rather than once per block.  Column 1 holds a zero and an
    infinite density, so it is repaired; column 3 is regular."""

    VALUES = np.array([[0.3, 0.0, 0.5, 0.2, 0.7, 0.4],
                       [0.1, np.inf, 0.6, 0.3, 0.5, 0.2],
                       [0.9, 0.4, 0.2, 0.8, 0.1, 0.6],
                       [0.2, 0.3, 0.7, 0.4, 0.3, 0.5]])
    X = Sample(np.zeros(6))

    def values_with_nan(self, row, col):
        values = self.VALUES.copy()
        values[row, col] = math.nan
        return values

    @pytest.mark.parametrize("col", [1, 3])
    @pytest.mark.parametrize("row", [0, 3])
    @pytest.mark.parametrize("kernel", [kernel_constants("psi1"), K2],
                             ids=lambda k: k.id)
    def test_upsilon_all(self, kernel, row, col):
        fam = DensityFamily([FixedValues(r) for r in self.values_with_nan(row, col)])
        with pytest.raises(ContractViolationError, match="square roots"):
            upsilon_all(self.X, fam, None, kernel)

    @pytest.mark.parametrize("col", [1, 3])
    def test_upsilon_den_and_num_rows(self, col):
        values = self.values_with_nan(3, col)
        fam = DensityFamily([FixedValues(r) for r in values])
        clean = DensityFamily([FixedValues(r) for r in self.VALUES])
        with pytest.raises(ContractViolationError, match="square roots"):
            upsilon(self.X, fam[3], clean, None, K2)  # den row
        with pytest.raises(ContractViolationError, match="square roots"):
            upsilon(self.X, clean[0], fam, None, K2)  # last num row

    @pytest.mark.parametrize("col", [1, 3])
    def test_t_statistic_den_and_num(self, col):
        bad = FixedValues(self.values_with_nan(0, col)[0])
        good = FixedValues(self.VALUES[2])
        for q, qp in ((bad, good), (good, bad)):
            with pytest.raises(ContractViolationError, match="square roots"):
                t_statistic(self.X, q, qp, K2)

    @pytest.mark.parametrize("col", [0, 3])
    def test_t_mix_den_and_num(self, col):
        X = Sample(np.linspace(-1.0, 1.0, 6))
        cs = CandidateSet([ProductDensity(iid=Gaussian(m, 1.0), n=6)
                           for m in (0.0, 0.5)], X)
        cs.values[1, col] = math.nan
        alpha, beta = SimplexPoint((0.5, 0.5)), SimplexPoint((1.0, 0.0))
        for a, b in ((alpha, beta), (beta, alpha)):
            with pytest.raises(ContractViolationError, match="square roots"):
                t_mix(cs, a, b, K2)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -1e-300])
    @pytest.mark.parametrize("col", [1, 3])
    def test_criterion_rows_den_num_and_last_row(self, bad, col):
        S = np.sqrt(self.VALUES)
        for row in range(len(S)):
            B = S.copy()
            B[row, col] = bad
            for den, num in ((B, B), (B, S), (S, B), (B[row:row + 1], S)):
                with pytest.raises(ContractViolationError, match="square roots"):
                    criterion._criterion_rows(den, num, 0.0, K2)


class TestRhoEstimate:
    def test_singleton(self):
        q = ProductDensity(iid=Gaussian(0, 1), n=3)
        fit = rho_estimate(Sample(np.array([0.0, 1.0, -1.0])), DensityFamily([q]))
        assert fit.chosen_index == 0
        assert fit.upsilon_at_chosen == 0.0

    def test_default_slack(self):
        q = ProductDensity(iid=Gaussian(0, 1), n=3)
        fit = rho_estimate(Sample(np.array([0.0, 1.0, -1.0])), DensityFamily([q]))
        assert fit.slack == pytest.approx(K2.kappa / 25.0, rel=1e-15)

    def test_tie_break_smallest_index(self):
        d = Gaussian(0, 1)
        fam = DensityFamily([ProductDensity(iid=d, n=3),
                             ProductDensity(iid=d, n=3)])
        fit = rho_estimate(Sample(np.array([0.0, 0.5, -0.5])), fam)
        assert fit.chosen_index == 0
        assert fit.admissible_set == (0, 1)

    def test_invariants_enforced(self):
        with pytest.raises(ContractViolationError):
            RhoFit(chosen_index=0, upsilon_at_chosen=5.0, upsilon_min=0.0,
                   admissible_set=(0,), slack=1.0, trace=(5.0,))

    def test_gaussian_grid_recovery(self):
        hits = 0
        reps = 40
        for rep in range(reps):
            rng = np.random.default_rng(100 + rep)
            X = Sample(rng.normal(0, 1, 200))
            fam = DensityFamily([ProductDensity(iid=Gaussian(t, 1), n=200)
                                 for t in np.arange(-2.0, 2.01, 0.1)])
            fit = rho_estimate(X, fam)
            theta_hat = -2.0 + 0.1 * fit.chosen_index
            hits += abs(theta_hat) <= 0.3
        assert hits / reps >= 0.95

    def test_exhaustive_oracle_small_cases(self):
        # a lighter version of the exhaustive acceptance check
        masses = [(1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.0, 0.5, 0.5),
                  (1 / 3, 1 / 3, 1 / 3)]
        dens = [discrete_density(m) for m in masses]
        for fam_idx in itertools.combinations(range(4), 3):
            sub = [dens[i] for i in fam_idx]
            for points in itertools.product([0.0, 1.0, 2.0], repeat=2):
                fam = DensityFamily([ProductDensity(iid=d, n=2) for d in sub])
                fit = rho_estimate(Sample(np.array(points)), fam, Penalty(), K2,
                                   slack=0.0)
                chosen, ups = oracle_rho(list(points), sub,
                                         [0.0] * len(sub), K2)
                assert np.allclose(fit.trace, ups, atol=1e-12)
                assert fit.chosen_index == chosen
