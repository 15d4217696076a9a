"""The shared input rules of ``rhoest.errors`` at every public boundary.

Each public value object and each public function that takes a count, a
seed, a scale, a weight, a tolerance, a density or a kernel rejects a bool,
NaN and a string there, a count or a seed also rejects a non-integral
number, a count also rejects 0, and a real, finite or not, also rejects an
int too large for a float, with ContractViolationError.
Penalty, InnerSolverConfig, ``saddle_point(max_outer=...)`` and the density
kinds have their own parametrized tests in the modules that test them.
"""

import json
import math

import numpy as np
import pytest

from rhoest import (CandidateSet, ContractViolationError, DensityFamily,
                    Gaussian, ModelCollection, ModelDescriptor, Penalty,
                    ProductDensity, QuadratureSpec, RegressionFunction,
                    RegressionModel, Sample, Scenario, SimplexPoint,
                    build_gaussian_location_grid, build_histogram_family,
                    check_identifiability, contamination_bias, d_s_loss,
                    dimension_bound_entropy, dimension_bound_finite,
                    dimension_bound_vc, eta_bar_finite, hellinger_sq,
                    kernel_constants, mc_risk, mixture_upsilon,
                    mle_counterexample, rho_estimate, saddle_point,
                    select_candidate, simplex_grid, simulate)

G = Gaussian(0.0, 1.0)
X = Sample(np.array([0.0, 0.5, 1.0]))
ENTRIES = [ProductDensity(iid=Gaussian(m, 1.0), n=3) for m in (0.0, 1.0)]
FAM = DensityFamily(ENTRIES)
CS = CandidateSet(ENTRIES, X)
LINE = RegressionFunction(lambda w: w, label="w")


def scenario(**kwargs):
    return Scenario(**{"truth": G, "n": 5, "replications": 1, "seed": 0, **kwargs})


# Parameter -> (call with the value, a good value); the rule asks for a count.
INTEGERS = {
    "ProductDensity.n": (lambda v: ProductDensity(iid=G, n=v), 2),
    "QuadratureSpec.max_subdivisions": (
        lambda v: QuadratureSpec(max_subdivisions=v), 2),
    "Scenario.n": (lambda v: scenario(n=v), 2),
    "Scenario.replications": (lambda v: scenario(replications=v), 2),
    "RegressionModel.vc_index_f": (
        lambda v: RegressionModel(G, [LINE], vc_index_f=v), 2),
    "simplex_grid.size": (lambda v: simplex_grid(v, 3), 2),
    "simplex_grid.steps": (lambda v: simplex_grid(3, v), 2),
    "mixture_upsilon.grid_steps": (
        lambda v: mixture_upsilon(CS, SimplexPoint((0.5, 0.5)), v), 2),
    "dimension_bound_finite": (dimension_bound_finite, 2),
    "dimension_bound_vc.n": (lambda v: dimension_bound_vc(1, v), 2),
    "build_histogram_family.k": (
        lambda v: build_histogram_family([(0.0, 1.0)], v, 5), 2),
    "build_histogram_family.mass_steps": (
        lambda v: build_histogram_family([(0.0, 1.0)], 1, 5, mass_steps=v), 2),
    "mle_counterexample.n": (lambda v: mle_counterexample(0.0, v, 1, 0), 3),
    "mle_counterexample.reps": (lambda v: mle_counterexample(0.0, 5, v, 0), 2),
}

# The same for parameters that take any integer; a negative seed is good.
SEEDS = {
    "Scenario.seed": (lambda v: scenario(seed=v), -1),
    "mle_counterexample.seed": (lambda v: mle_counterexample(0.0, 5, 1, v), -1),
}

# The same for parameters whose rule asks for a real number.
REALS = {
    "QuadratureSpec.abs_tol": (lambda v: QuadratureSpec(abs_tol=v), 0.5),
    "SimplexPoint.weights": (lambda v: SimplexPoint((v, 0.5)), 0.5),
    "Scenario.eps": (
        lambda v: scenario(kind="contaminated", contaminant=G, eps=v), 0.5),
    "ModelDescriptor.dim_bound": (lambda v: ModelDescriptor(FAM, v), 2.0),
    "ModelDescriptor.delta_weight": (
        lambda v: ModelDescriptor(FAM, 2.0, delta_weight=v), 0.5),
    "RegressionModel.delta_weight": (
        lambda v: RegressionModel(G, [LINE], vc_index_f=1, delta_weight=v), 0.5),
    "RegressionModel.mode_multiplier": (
        lambda v: RegressionModel(G, [LINE], vc_index_f=1, mode_multiplier=v), 1.0),
    "rho_estimate.slack": (lambda v: rho_estimate(X, FAM, slack=v), 0.5),
    "saddle_point.eps": (lambda v: saddle_point(CS, eps=v), 0.5),
    "dimension_bound_vc.vc_index": (lambda v: dimension_bound_vc(v, 10), 1.5),
    "dimension_bound_vc.c1": (lambda v: dimension_bound_vc(3, 10, v), 0.5),
    "dimension_bound_entropy": (dimension_bound_entropy, 0.5),
    "mle_counterexample.theta": (lambda v: mle_counterexample(v, 5, 1, 0), 0.5),
    "mle_counterexample.grid_step": (
        lambda v: mle_counterexample(0.0, 5, 1, 0, grid_step=v), 0.5),
    "contamination_bias.eps": (lambda v: contamination_bias(G, G, v), 0.5),
}

# The same for parameters that take a density, a function or a kernel.
OBJECTS = {
    "Scenario.truth": (lambda v: scenario(truth=v), G),
    "Scenario.contaminant": (
        lambda v: scenario(kind="contaminated", contaminant=v, eps=0.5), G),
    "RegressionModel.error_density": (
        lambda v: RegressionModel(v, [LINE], vc_index_f=1), G),
    "RegressionModel.functions": (
        lambda v: RegressionModel(G, [v], vc_index_f=1), LINE),
    "hellinger_sq.p": (lambda v: hellinger_sq(v, G), G),
    "hellinger_sq.q": (lambda v: hellinger_sq(G, v), G),
    "contamination_bias.center": (lambda v: contamination_bias(v, G, 0.5), G),
    "contamination_bias.contaminant": (lambda v: contamination_bias(G, v, 0.5), G),
    "d_s_loss.s": (lambda v: d_s_loss(v, LINE, LINE, [0.0, 1.0]), G),
    "check_identifiability.candidates_r": (
        lambda v: check_identifiability([G, v], [-1.0, 0.0, 1.0]), G),
    # A non-density estimate is the caller's error, not a failed replicate.
    "mc_risk.estimate": (lambda v: mc_risk(scenario(), lambda x: v, G), G),
    "mc_risk.truth_for_loss": (lambda v: mc_risk(scenario(), lambda x: G, v), G),
    "eta_bar_finite.kernel": (lambda v: eta_bar_finite(FAM, v), kernel_constants()),
    "ModelCollection.kernel": (
        lambda v: ModelCollection([ModelDescriptor(FAM, 2.0)], v).penalty(),
        kernel_constants()),
}

TABLE = {**INTEGERS, **SEEDS, **REALS, **OBJECTS}
BAD = {"bool": True, "nan": math.nan, "string": "1", "fraction": 2.5, "zero": 0,
       "huge-int": 10**400}


def bad_values(name):
    if name in INTEGERS:
        return ("bool", "nan", "string", "fraction", "zero")
    return (("bool", "nan", "string") + (("fraction",) if name in SEEDS else ())
            + (("huge-int",) if name in REALS else ()))


CASES = [(name, bad) for name in TABLE for bad in bad_values(name)]


@pytest.mark.parametrize("name, bad", CASES, ids=[f"{n}-{b}" for n, b in CASES])
def test_rule_rejects_bad_value(name, bad):
    call, good = TABLE[name]
    call(good)  # so that the rejection below is the bad value's doing
    with pytest.raises(ContractViolationError):
        call(BAD[bad])


@pytest.mark.parametrize("make", [
    lambda: Gaussian(10**5000, 1.0),
    lambda: Gaussian(0.0, -10**5000),
    lambda: ProductDensity(iid=G, n=-10**5000),
    lambda: ModelDescriptor(FAM, 2.0, delta_weight=10**5000),
    lambda: Penalty({0: 10**5000}),
    lambda: Penalty({10**5000: 1.0}).vector(2),
], ids=["real", "scale", "count", "nonnegative", "penalty", "penalty-index"])
def test_int_past_the_repr_limit_is_shown_by_bit_length(make):
    # repr of an int of 4300 digits or more raises ValueError.
    with pytest.raises(ContractViolationError, match=r"int of 1661\d bits"):
        make()


@pytest.mark.parametrize("make, name", [
    (lambda: build_gaussian_location_grid(-10**400, 1.0, 0.5, 1.0, 3), "theta_min"),
    (lambda: build_gaussian_location_grid(-1.0, 10**400, 0.5, 1.0, 3), "theta_max"),
    (lambda: build_gaussian_location_grid(-1.0, 1.0, 10**400, 1.0, 3), "step"),
    (lambda: build_histogram_family([(0.0, 1.0)], 10**5000, 5), "k"),
    (lambda: build_histogram_family([(0.0, 1.0)], 2**1023, 5), "k"),
], ids=["grid-min", "grid-max", "grid-step", "histogram-k", "histogram-k-2**1023"])
def test_int_too_large_for_a_float_is_blamed_on_its_parameter(make, name):
    # Not a bare OverflowError, and not vc_index, which 2k + 1 becomes.
    with pytest.raises(ContractViolationError, match=rf"^{name} must "):
        make()


@pytest.mark.parametrize("grid", [[-math.inf, 0.0, math.inf], ["a"]])
def test_shift_grid_is_checked_by_the_vector_rule(grid):
    # Not a shifted candidate's "mean must be finite", nor a bare ValueError.
    with pytest.raises(ContractViolationError, match="^shift_grid must be"):
        check_identifiability([G, Gaussian(0.0, 2.0)], grid)


def test_negative_seed_is_masked_to_64_bits():
    # A seed counts modulo 2**64; seeds past 2**63 keep keys of their own.
    draw = {s: simulate(scenario(seed=s))[0].points for s in (-1, 2**64 - 1, -2, 0)}
    assert np.array_equal(draw[-1], draw[2**64 - 1])
    assert not np.array_equal(draw[-1], draw[-2])
    assert not np.array_equal(draw[-1], draw[0])


@pytest.mark.parametrize("slack", [math.nan, -1.0, math.inf])
def test_bad_slack_is_named(slack):
    # Not an internal invariant of RhoFit: the message names the argument.
    with pytest.raises(ContractViolationError, match="slack"):
        rho_estimate(X, FAM, slack=slack)


def test_negative_delta_is_rejected_by_the_weights_rule():
    # Unchecked, -800 overflows exp(800) before the budget check runs.
    select_candidate(X, ENTRIES, [0.5, 5.0])
    for bad in (-800.0, -1.0):
        with pytest.raises(ContractViolationError, match="deltas"):
            select_candidate(X, ENTRIES, [bad, 5.0])


@pytest.mark.parametrize("value, stored", [
    (np.float32(0.1), float(np.float32(0.1))), (np.float64(0.7), 0.7),
    (np.int64(3), 3), (np.int32(-2), -2), (3, 3), (0.5, 0.5)])
def test_scalar_rules_store_python_numbers(value, stored):
    # A numpy scalar is stored as the Python number of its value, and a
    # Python int stays an int, so to_json keeps 0 as 0.
    kept = [Gaussian(value, 2).mean, Gaussian(0, abs(value)).sd,
            ModelDescriptor(FAM, 2.0, delta_weight=abs(value)).delta_weight]
    assert [(type(v), v) for v in kept] == [
        (type(stored), stored), (type(stored), abs(stored)),
        (type(stored), abs(stored))]


def test_float32_parameters_hash_serialize_and_evaluate_as_float64():
    g = Gaussian(np.float32(0.1), np.float32(0.7))
    twin = Gaussian(float(np.float32(0.1)), float(np.float32(0.7)))
    assert g == twin and hash(g) == hash(twin)
    assert len({g, Gaussian(0.1, 0.7)}) == 2 and g != Gaussian(0.1, 0.7)
    assert json.loads(json.dumps(g.to_json())) == twin.to_json()
    x = np.linspace(-3.0, 3.0, 13)
    assert np.array_equal(g.pdf(x).view(np.int64), twin.pdf(x).view(np.int64))
    assert json.dumps(Gaussian(np.int64(0), 1).to_json()) == \
        '{"kind": "gaussian", "params": {"mean": 0, "sd": 1}}'
