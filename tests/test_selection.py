import dataclasses
import math

import numpy as np
import pytest

from rhoest import (ContractViolationError, DensityFamily, Gaussian,
                    ModelCollection, ModelDescriptor, Penalty, ProductDensity,
                    Sample, build_gaussian_location_grid,
                    dimension_bound_finite, kernel_constants, penalty_for,
                    rho_estimate, risk_bound_report, select, uniform_weights)

K2 = kernel_constants("psi2")


def grid_model(theta_min, theta_max, step, n, delta=0.0, finite_bound=False):
    desc = build_gaussian_location_grid(theta_min, theta_max, step, 1.0, n)
    dim_bound = (dimension_bound_finite(len(desc.family)) if finite_bound
                 else desc.dim_bound)
    return dataclasses.replace(desc, dim_bound=dim_bound, delta_weight=delta)


def singleton_model(mean, n, dim_bound=1.0, delta=0.0):
    fam = DensityFamily([ProductDensity(iid=Gaussian(mean, 1), n=n)])
    return ModelDescriptor(family=fam, dim_bound=dim_bound, delta_weight=delta)


class TestCollection:
    def test_weight_budget_enforced(self):
        models = [singleton_model(0.0, 5), singleton_model(1.0, 5)]
        with pytest.raises(ContractViolationError):
            ModelCollection(models, K2)   # two zero weights: sum exp(0) = 2

    def test_uniform_weights_satisfy_budget(self):
        delta = uniform_weights(3)
        models = [singleton_model(m, 5, delta=delta) for m in (0.0, 1.0, 2.0)]
        coll = ModelCollection(models, K2)
        assert len(coll.union_family) == 3

    def test_shared_entries_deduplicated(self):
        m1 = grid_model(-1, 1, 1.0, 5, delta=math.log(2))
        m2 = grid_model(0, 2, 1.0, 5, delta=math.log(2))
        coll = ModelCollection([m1, m2], K2)
        assert len(coll.union_family) == 4   # thetas -1, 0, 1, 2
        shared = coll.union_family.labels.index("theta=0")
        assert coll.membership[shared] == (0, 1)

    def test_mismatched_n_rejected(self):
        with pytest.raises(ContractViolationError):
            ModelCollection([singleton_model(0.0, 5, delta=1.0),
                             singleton_model(0.0, 6, delta=1.0)], K2)


class TestPenaltyFor:
    def test_single_model(self):
        coll = ModelCollection([singleton_model(0.0, 5, dim_bound=1.0)], K2)
        assert penalty_for(coll, 0) == pytest.approx(K2.kappa / 4.7, rel=1e-14)

    def test_inf_takes_cheaper_model(self):
        fam = DensityFamily([ProductDensity(iid=Gaussian(0, 1), n=5)])
        big = ModelDescriptor(family=fam, dim_bound=10.0, delta_weight=math.log(2))
        small = ModelDescriptor(family=fam, dim_bound=1.0, delta_weight=math.log(2))
        coll = ModelCollection([big, small], K2)
        assert penalty_for(coll, 0) == pytest.approx(
            K2.kappa * (1.0 / 4.7 + math.log(2)), rel=1e-14)

    def test_complexity_tie(self):
        # dim/4.7 + delta identical for both models: the inf is a tie
        fam = DensityFamily([ProductDensity(iid=Gaussian(0, 1), n=5)])
        shift = math.log(2)
        a = ModelDescriptor(family=fam, dim_bound=4.7, delta_weight=1.0 + shift)
        b = ModelDescriptor(family=fam, dim_bound=9.4, delta_weight=0.0 + shift)
        coll = ModelCollection([a, b], K2)
        assert coll.complexity(0) == pytest.approx(coll.complexity(1), rel=1e-14)
        assert penalty_for(coll, 0) == pytest.approx(
            K2.kappa * (2.0 + shift), rel=1e-14)

    @pytest.mark.parametrize("index", [5, -1])
    def test_index_outside_the_union_rejected(self, index):
        coll = ModelCollection([grid_model(-2, 2, 1.0, 5)], K2)
        assert len(coll.union_family) == 5
        with pytest.raises(ContractViolationError, match="entry_index"):
            penalty_for(coll, index)

    def test_monotone_in_delta(self):
        before = singleton_model(0.0, 5, dim_bound=2.0, delta=0.5)
        after = singleton_model(0.0, 5, dim_bound=2.0, delta=1.5)
        p0 = penalty_for(ModelCollection([before], K2), 0)
        p1 = penalty_for(ModelCollection([after], K2), 0)
        assert p1 > p0


class TestSelect:
    def test_singleton_collection(self):
        coll = ModelCollection([singleton_model(0.0, 4)], K2)
        X = Sample(np.array([0.1, -0.1, 0.2, 0.0]))
        out = select(X, coll)
        assert out["selected_models"] == [0]
        assert out["fit"].chosen_index == 0

    def test_matches_direct_rho_estimate(self):
        m1 = grid_model(-1, 1, 0.5, 30, delta=math.log(2))
        m2 = grid_model(-1, 1, 0.25, 30, delta=math.log(2), finite_bound=True)
        coll = ModelCollection([m1, m2], K2)
        X = Sample(np.random.default_rng(4).normal(0.3, 1, 30))
        out = select(X, coll)
        pen = Penalty({i: penalty_for(coll, i)
                       for i in range(len(coll.union_family))})
        direct = rho_estimate(X, coll.union_family, pen, K2)
        assert out["fit"].chosen_index == direct.chosen_index
        assert out["fit"].trace == direct.trace

    def test_constant_penalty_reduces_to_unpenalized(self):
        m = grid_model(-1, 1, 0.5, 40, delta=0.0)
        coll = ModelCollection([m], K2)
        X = Sample(np.random.default_rng(8).normal(0, 1, 40))
        out = select(X, coll)
        plain = rho_estimate(X, coll.union_family, None, K2)
        assert out["fit"].chosen_index == plain.chosen_index

    def test_coarse_model_preferred_when_truth_on_it(self):
        wins = 0
        reps = 30
        n = 500
        for rep in range(reps):
            rng = np.random.default_rng(900 + rep)
            X = Sample(rng.normal(0, 1, n))
            coarse = grid_model(-1, 1, 0.5, n, delta=math.log(2),
                                finite_bound=True)
            fine = grid_model(-1, 1, 0.05, n, delta=math.log(2),
                              finite_bound=True)
            coll = ModelCollection([coarse, fine], K2)
            out = select(X, coll)
            wins += out["selected_models"][0] == 0
        assert wins / reps >= 0.9


class TestRiskBound:
    def test_arithmetic(self):
        coll = ModelCollection([singleton_model(0.0, 4, dim_bound=4.7)], K2)
        got = risk_bound_report(coll, 0, xi=1.0)
        assert got == pytest.approx((4 * K2.kappa / K2.a1) * 3.5, rel=1e-12)
        assert got == pytest.approx(17546, abs=1.0)

    def test_monotone_in_xi(self):
        coll = ModelCollection([singleton_model(0.0, 4)], K2)
        assert risk_bound_report(coll, 0, 2.0) > risk_bound_report(coll, 0, 1.0)

    def test_xi_positive_required(self):
        coll = ModelCollection([singleton_model(0.0, 4)], K2)
        with pytest.raises(ContractViolationError):
            risk_bound_report(coll, 0, 0.0)
