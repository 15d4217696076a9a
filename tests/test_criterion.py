import itertools
import math

import numpy as np
import pytest

from rhoest import (ContractViolationError, DensityFamily, Gaussian,
                    Histogram, Penalty, ProductDensity, RhoFit, Sample,
                    kernel_constants, rho_estimate, t_statistic, upsilon,
                    upsilon_all)

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
