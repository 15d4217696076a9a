"""The shared input rules of ``rhoest.errors`` at every public boundary.

Each public value object and each public function that takes a count, a
seed, a scale, a weight, a tolerance, a density or a kernel rejects a bool,
NaN and a string there, a count or a seed also rejects a non-integral
number, a count also rejects 0, and a real, finite or not, also rejects an
int too large for a float, with ContractViolationError.
Penalty, InnerSolverConfig, ``saddle_point(max_outer=...)`` and the density
kinds have their own parametrized tests in the modules that test them.

An object argument (a kernel, a quadrature spec, a solver config, a
penalty, a candidate set, a family, a sample, a collection, a scenario or
a report) must be of its type; None gives the default of a parameter that
has one, and anything else, a falsy 0 too, is refused with a
ContractViolationError that names the parameter.

A collection argument is any iterable but a string, and each of its
elements passes the element's rule, or the message names it ``name[i]``.
An index argument is an int in range of what it indexes; a bool, a float
and a negative int are refused.
"""

import ast
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import rhoest
from rhoest import (CandidateSet, ContractViolationError, DensityFamily, ExpFamily,
                    Gaussian, InnerSolverConfig, Laplace, ModelCollection,
                    ModelDescriptor, Penalty, ProductDensity, QuadratureSpec,
                    RegressionFunction, RegressionModel, RiskReport, Sample,
                    Scenario, SimplexPoint, Tabulated, build_exp_family_grid,
                    build_gaussian_location_grid, build_histogram_family,
                    build_regression_family, check_assumption,
                    check_identifiability, contamination_bias, d_s_loss,
                    dimension_bound_entropy, dimension_bound_finite,
                    dimension_bound_vc, eta_bar_finite, eval_psi, export,
                    fit_regression, hellinger_affinity, hellinger_sq,
                    inner_argmax, integrate_1d, kernel_constants, mc_risk,
                    mixture_upsilon, mle_counterexample, penalty_for,
                    product_hellinger_sq, psi_pair, rho_estimate,
                    risk_bound_report, saddle_point, select, select_candidate,
                    simplex_grid, simulate, t_mix, t_statistic, upsilon,
                    upsilon_all)

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


@pytest.mark.parametrize("w", [["a"], [0.0, math.inf], [math.nan]])
def test_design_points_are_checked_by_the_vector_rule(w):
    # Not a bare ValueError from numpy's float conversion.
    with pytest.raises(ContractViolationError, match="^w_sample must be"):
        d_s_loss(G, LINE, LINE, w)


K = kernel_constants()
HALF = SimplexPoint((0.5, 0.5))
ONE = CandidateSet(ENTRIES[:1], X)  # saddle_point's early return

# Every object parameter that a public callable takes under one of these
# names, as "callable.parameter" -> the call with the value.  Where a call
# can leave the value unread (a closed form, eps = 0, one candidate, zero
# shifts, an empty range), the table makes that call, so the argument must
# be checked at entry.
OBJECT_NAMES = {"kernel", "quad", "spec", "inner", "pen", "cs", "center_pool",
                "family", "q", "qp"}
OBJECT_ARGUMENTS = {
    "ModelCollection.kernel": lambda v: ModelCollection([ModelDescriptor(FAM, 2.0)], v),
    "ModelDescriptor.family": lambda v: ModelDescriptor(v, 2.0),
    "check_assumption.q": lambda v: check_assumption(K, v, G, G),
    "check_assumption.qp": lambda v: check_assumption(K, G, v, G),
    "hellinger_affinity.q": lambda v: hellinger_affinity(G, v),
    "hellinger_sq.q": lambda v: hellinger_sq(G, v),
    "t_statistic.q": lambda v: t_statistic(X, v, ENTRIES[1], K),
    "t_statistic.qp": lambda v: t_statistic(X, ENTRIES[0], v, K),
    "upsilon.q": lambda v: upsilon(X, v, FAM, None, K),
    "build_exp_family_grid.quad": lambda v: build_exp_family_grid(
        ("x",), [(0.0,)], 0.0, 1.0, 3, quad=v),
    "build_regression_family.kernel": lambda v: build_regression_family(
        [RegressionModel(G, [LINE], vc_index_f=1)], 3, v),
    "check_assumption.kernel": lambda v: check_assumption(v, G, G, G),
    "check_assumption.quad": lambda v: check_assumption(K, G, G, G, v),
    "check_identifiability.quad": lambda v: check_identifiability([G], [0.0], v),
    "contamination_bias.quad": lambda v: contamination_bias(G, G, 0.0, v),
    "d_s_loss.quad": lambda v: d_s_loss(G, LINE, LINE, [0.0, 1.0], v),
    "eta_bar_finite.kernel": lambda v: eta_bar_finite(FAM, v),
    "eta_bar_finite.center_pool": lambda v: eta_bar_finite(FAM, K, v),
    "eta_bar_finite.quad": lambda v: eta_bar_finite(FAM, K, quad=v),
    "eval_psi.kernel": lambda v: eval_psi(v, 1.0),
    "hellinger_affinity.quad": lambda v: hellinger_affinity(G, G, v),
    "hellinger_sq.quad": lambda v: hellinger_sq(G, G, v),
    "inner_argmax.cs": lambda v: inner_argmax(v, HALF),
    "inner_argmax.kernel": lambda v: inner_argmax(CS, HALF, v),
    "inner_argmax.inner": lambda v: inner_argmax(CS, HALF, K, v),
    "integrate_1d.spec": lambda v: integrate_1d(np.exp, 0.0, 0.0, v),
    "mc_risk.quad": lambda v: mc_risk(scenario(), lambda x: G, G, v),
    "mixture_upsilon.cs": lambda v: mixture_upsilon(v, HALF, 2),
    "mixture_upsilon.kernel": lambda v: mixture_upsilon(CS, HALF, 2, v),
    "mle_counterexample.kernel": lambda v: mle_counterexample(0.0, 5, 1, 0, kernel=v),
    "product_hellinger_sq.quad": lambda v: product_hellinger_sq(ENTRIES[0], ENTRIES[0], v),
    "psi_pair.kernel": lambda v: psi_pair(v, 1.0, 1.0),
    "rho_estimate.pen": lambda v: rho_estimate(X, FAM, v),
    "rho_estimate.kernel": lambda v: rho_estimate(X, FAM, kernel=v),
    "saddle_point.cs": lambda v: saddle_point(v),
    "saddle_point.kernel": lambda v: saddle_point(ONE, v),
    "saddle_point.inner": lambda v: saddle_point(ONE, inner=v),
    "select_candidate.kernel": lambda v: select_candidate(X, ENTRIES, [1.0, 1.0], v),
    "t_mix.cs": lambda v: t_mix(v, HALF, HALF),
    "t_mix.kernel": lambda v: t_mix(CS, HALF, HALF, v),
    "t_statistic.kernel": lambda v: t_statistic(X, ENTRIES[0], ENTRIES[1], v),
    "upsilon.pen": lambda v: upsilon(X, ENTRIES[0], FAM, v, K),
    "upsilon.kernel": lambda v: upsilon(X, ENTRIES[0], FAM, None, v),
    "upsilon_all.pen": lambda v: upsilon_all(X, FAM, v, K),
    "upsilon_all.kernel": lambda v: upsilon_all(X, FAM, None, v),
}
# A good value for each parameter with no default, by parameter or, where
# callables differ, by slot; upsilon's ``pen`` has none, but takes None.
REQUIRED = {"kernel": K, "cs": CS, "family": FAM, "q": G, "qp": G,
            "t_statistic.q": ENTRIES[0], "t_statistic.qp": ENTRIES[1],
            "upsilon.q": ENTRIES[0]}


def public_slots(names):
    """``callable.parameter`` of every public callable of the package that
    takes a parameter of one of these names."""
    public = [getattr(rhoest, name) for name in dir(rhoest) if not name.startswith("_")]
    return {f"{f.__name__}.{p}" for f in public
            if callable(f) and not (isinstance(f, type) and issubclass(f, Exception))
            for p in inspect.signature(f).parameters if p in names}


def test_object_argument_table_is_complete():
    # A new public function with such a parameter cannot skip the table.
    assert public_slots(OBJECT_NAMES) == set(OBJECT_ARGUMENTS)


@pytest.mark.parametrize("bad", [0, "x"], ids=["zero", "string"])
@pytest.mark.parametrize("slot", sorted(OBJECT_ARGUMENTS))
def test_object_argument_rejects_a_non_instance(slot, bad):
    func, param = slot.split(".")
    default = inspect.signature(getattr(rhoest, func)).parameters[param].default
    call = OBJECT_ARGUMENTS[slot]
    # The good value first, so that the rejection below is the bad value's doing.
    call(REQUIRED.get(slot, REQUIRED.get(param))
         if default is inspect.Parameter.empty else None)
    with pytest.raises(ContractViolationError, match=f"^{param} must be a "):
        call(bad)


@pytest.mark.parametrize("default, explicit", [
    (lambda: mle_counterexample(0.0, 5, 2, 0),
     lambda: mle_counterexample(0.0, 5, 2, 0, kernel=kernel_constants("psi2"))),
    (lambda: rho_estimate(X, FAM),
     lambda: rho_estimate(X, FAM, Penalty(), kernel_constants("psi2"))),
    (lambda: t_mix(CS, HALF, SimplexPoint((0.2, 0.8))),
     lambda: t_mix(CS, HALF, SimplexPoint((0.2, 0.8)), kernel_constants("psi2"))),
    (lambda: inner_argmax(CS, HALF),
     lambda: inner_argmax(CS, HALF, kernel_constants("psi2"), InnerSolverConfig())),
    (lambda: hellinger_sq(G, Laplace(0.0, 1.0)),
     lambda: hellinger_sq(G, Laplace(0.0, 1.0), QuadratureSpec())),
], ids=["mle_counterexample", "rho_estimate", "t_mix", "inner_argmax", "hellinger_sq"])
def test_none_gives_the_explicit_default_bit_for_bit(default, explicit):
    assert repr(default()) == repr(explicit())


@pytest.mark.parametrize("name, call", [
    ("fam", lambda p: rho_estimate(X, "x")),
    ("fam", lambda p: upsilon_all(X, 0, None, K)),
    ("X", lambda p: rho_estimate([0.1] * 3, FAM)),
    ("sample", lambda p: CandidateSet(ENTRIES, [0.1] * 3)),
    ("coll", lambda p: select(X, "x")),
    ("coll", lambda p: fit_regression(X, 0)),
    ("coll", lambda p: penalty_for("x", 0)),
    ("coll", lambda p: risk_bound_report("x", 0, 1.0)),
    ("scenario", lambda p: mc_risk("x", lambda x: G, G)),
    ("scenario", lambda p: simulate("x")),
    ("report", lambda p: export("x", "json", str(p / "out.json"))),
    ("fam", lambda p: eta_bar_finite("x", K)),
], ids=["rho_estimate", "upsilon_all", "rho_estimate-X", "CandidateSet",
        "select", "fit_regression", "penalty_for", "risk_bound_report",
        "mc_risk", "simulate", "export", "eta_bar_finite"])
def test_required_object_argument_is_named(name, call, tmp_path):
    with pytest.raises(ContractViolationError, match=f"^{name} must be a "):
        call(tmp_path)
    assert not (tmp_path / "out.json").exists()


def _falsy_defaults(tree):
    """``param or <call or name>`` inside a function that takes ``param``."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  *filter(None, (a.vararg, a.kwarg)))}
        for node in ast.walk(fn):
            if (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)
                    and isinstance(node.values[0], ast.Name)
                    and node.values[0].id in params
                    and any(isinstance(v, (ast.Call, ast.Name)) for v in node.values[1:])):
                yield node.lineno, ast.unparse(node)


def test_no_falsy_default_idiom_in_the_package():
    # ``kernel or kernel_constants()`` runs the default on kernel=0: an
    # omitted object argument is None, and _instance turns it into the default.
    src = Path(rhoest.__file__).parent
    found = [f"{path.name}:{line}: {text}" for path in sorted(src.glob("*.py"))
             for line, text in _falsy_defaults(ast.parse(path.read_text()))]
    assert found == []


def test_the_lint_sees_the_idiom():
    tree = ast.parse("def f(kernel=None, fam=None, pool=None, coords=None):\n"
                     "    g = globals().get('x') or h()\n"
                     "    return (kernel or make(), pool or fam, coords or ())\n")
    assert [text for _, text in _falsy_defaults(tree)] == [
        "kernel or make()", "pool or fam"]


TWO_MODELS = ModelCollection([ModelDescriptor(FAM, 2.0, delta_weight=math.log(2.0)),
                              ModelDescriptor(DensityFamily(ENTRIES[:1]), 4.0,
                                              delta_weight=math.log(2.0))])

# Every collection parameter that a public callable takes under one of these
# names, as "callable.parameter" -> (the call with the value, a good value,
# whether each element passes a rule of its own).  ``labels`` and ``basis``
# have none: "x" is a label and a basis expression.  Penalty's ``values`` is
# a dict whose keys and values tests/test_criterion.py covers, and
# Tabulated's ``values`` a vector whose rule names the parameter alone.
COLLECTION_NAMES = {"entries", "labels", "candidates", "densities", "models", "coords",
                    "candidates_r", "breakpoint_grids", "basis", "coefficient_grid",
                    "points", "values", "functions"}
COLLECTIONS = {
    "DensityFamily.entries": (DensityFamily, ENTRIES, True),
    # One entry, so that labels="a" would have the right length.
    "DensityFamily.labels": (lambda v: DensityFamily(ENTRIES[:1], v), ["a"], False),
    "select_candidate.candidates": (
        lambda v: select_candidate(X, v, [1.0, 1.0]), ENTRIES, True),
    "CandidateSet.densities": (lambda v: CandidateSet(v, X), ENTRIES, True),
    "ModelCollection.models": (ModelCollection, [ModelDescriptor(FAM, 2.0)], True),
    "build_regression_family.models": (
        lambda v: build_regression_family(v, 3), [RegressionModel(G, [LINE], 1)], True),
    "RegressionModel.functions": (lambda v: RegressionModel(G, v, 1), [LINE], True),
    "ProductDensity.coords": (ProductDensity, [G, G], True),
    "check_identifiability.candidates_r": (
        lambda v: check_identifiability(v, [0.0]), [G], True),
    "build_histogram_family.breakpoint_grids": (
        lambda v: build_histogram_family(v, 1, 5), [(0.0, 1.0)], True),
    "build_exp_family_grid.basis": (
        lambda v: build_exp_family_grid(v, [(0.0,)], 0.0, 1.0, 3), ("x",), False),
    "build_exp_family_grid.coefficient_grid": (
        lambda v: build_exp_family_grid(("x",), v, 0.0, 1.0, 3), [(0.0,)], True),
    "ExpFamily.basis": (lambda v: ExpFamily(v, (0.0,), 0.0, 0.0, 1.0), ("x",), False),
    "integrate_1d.points": (lambda v: integrate_1d(np.exp, 0.0, 1.0, points=v), [0.5], True),
    "Penalty.values": (Penalty, {0: 1.0}, False),
    "Tabulated.values": (lambda v: Tabulated((0.0, 1.0), v), (1.0, 1.0), False),
}
# An array, not a collection of elements: a Sample's points are checked for
# their shape and finiteness (tests/test_densities.py).
NOT_COLLECTIONS = {"Sample.points"}


def test_collection_argument_table_is_complete():
    assert public_slots(COLLECTION_NAMES) == set(COLLECTIONS) | NOT_COLLECTIONS


COLLECTION_CASES = [(slot, bad) for slot, (_, _, elements) in sorted(COLLECTIONS.items())
                    for bad in ("non-iterable", "string") + ("element",) * elements]


@pytest.mark.parametrize("slot, bad", COLLECTION_CASES,
                         ids=[f"{slot}-{bad}" for slot, bad in COLLECTION_CASES])
def test_collection_argument_rejects_a_bad_value(slot, bad):
    call, good, _ = COLLECTIONS[slot]
    param = slot.split(".")[1]
    call(good)  # so that the rejection below is the bad value's doing
    value, name = {"non-iterable": (5, param), "string": ("x", param),
                   "element": (["x"], f"{param}[0]")}[bad]
    with pytest.raises(ContractViolationError, match=f"^{re.escape(name)} must "):
        call(value)


@pytest.mark.parametrize("call, name", [
    (lambda: CandidateSet([], X), "densities"),
    (lambda: DensityFamily([]), "entries"),
    (lambda: select_candidate(X, [], []), "candidates"),
    (lambda: ModelCollection(()), "models"),
    (lambda: build_regression_family([], 3), "models"),
    (lambda: RegressionModel(G, [], 1), "functions"),
    (lambda: build_histogram_family([], 1, 5), "breakpoint_grids"),
], ids=["CandidateSet", "DensityFamily", "select_candidate", "ModelCollection",
        "build_regression_family", "RegressionModel", "build_histogram_family"])
def test_empty_collection_is_named(call, name):
    with pytest.raises(ContractViolationError, match=f"^{name} must hold >= 1 items, got 0$"):
        call()


def test_element_failure_names_the_first_bad_index():
    with pytest.raises(ContractViolationError, match=r"^coords\[2\] must be a Density1D"):
        ProductDensity([G, G, "x", 5])
    with pytest.raises(ContractViolationError,
                       match=r"^breakpoint_grids\[1\] must be a number, got 'a'"):
        build_histogram_family([(0.0, 1.0), ["a", 1]], 2, 10)


def test_iid_family_labels_are_a_collection():
    for bad in (5, "a"):
        with pytest.raises(ContractViolationError, match="^labels must be a list"):
            DensityFamily.iid(Gaussian, 3, labels=bad, mean=np.zeros(1), sd=np.ones(1))


def test_exp_family_basis_is_not_split_into_characters():
    # "x2" once built the two-function basis "x" and "2".
    with pytest.raises(ContractViolationError, match="^basis must be a list, got 'x2'"):
        build_exp_family_grid("x2", [(0.0, 0.0)], 0.0, 1.0, 3)


# Every index parameter, as "callable.parameter" -> (the call with the
# value, the size of what it indexes).
INDEX_NAMES = {"entry_index", "m_idx"}
INDICES = {
    "penalty_for.entry_index": (lambda v: penalty_for(TWO_MODELS, v),
                                len(TWO_MODELS.union_family)),
    "risk_bound_report.m_idx": (lambda v: risk_bound_report(TWO_MODELS, v, 1.0),
                                len(TWO_MODELS.models)),
}


def test_index_argument_table_is_complete():
    assert public_slots(INDEX_NAMES) == set(INDICES)


@pytest.mark.parametrize("bad", ["-1", "True", "1.0", "size"])
@pytest.mark.parametrize("slot", sorted(INDICES))
def test_index_argument_rejects_a_bad_value(slot, bad):
    call, size = INDICES[slot]
    param = slot.split(".")[1]
    assert [call(i) for i in range(size)]  # every index in range is good
    value = {"-1": -1, "True": True, "1.0": 1.0, "size": size}[bad]
    with pytest.raises(ContractViolationError,
                       match=rf"^{param} must be an integer in \[0, {size}\), got "):
        call(value)


def test_numpy_index_gives_the_python_index_answer():
    assert risk_bound_report(TWO_MODELS, np.int64(1), 1.0) == risk_bound_report(
        TWO_MODELS, 1, 1.0) != risk_bound_report(TWO_MODELS, 0, 1.0)
    assert penalty_for(TWO_MODELS, np.int32(1)) == penalty_for(TWO_MODELS, 1)


def _collected_parameters(tree):
    """``list(p)``, ``tuple(p)``, ``set(p)`` or ``sorted(p)`` of a parameter
    ``p`` inside a public function or method (``__init__`` too): the
    unchecked idiom that ``_each`` and ``_items`` replace."""
    def public(name):
        return not name.startswith("_") or name == "__init__"

    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [node for cls in tree.body
                  if isinstance(cls, ast.ClassDef) and public(cls.name)
                  for node in cls.body if isinstance(node, ast.FunctionDef)]
    for fn in functions:
        if not public(fn.name):
            continue
        a = fn.args  # *args and **kwargs are a tuple and a dict already
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in {"list", "tuple", "set", "sorted"}
                    and node.args and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in params):
                yield node.lineno, ast.unparse(node)


def test_no_unchecked_collection_idiom_in_the_package():
    # errors.py defines the rules, _items's own tuple(v) among them.
    src = Path(rhoest.__file__).parent
    found = [f"{path.name}:{line}: {text}" for path in sorted(src.glob("*.py"))
             if path.name != "errors.py"
             for line, text in _collected_parameters(ast.parse(path.read_text()))]
    assert found == []


def test_the_collection_lint_sees_the_idiom():
    tree = ast.parse("def f(xs, ys):\n"
                     "    a = list(xs)\n"
                     "    return tuple(a), sorted(ys, key=len), list(range(3))\n"
                     "def _g(xs):\n"
                     "    return list(xs)\n"
                     "class C:\n"
                     "    def __init__(self, xs):\n"
                     "        self.xs = set(xs)\n"
                     "    def _h(self, xs):\n"
                     "        return list(xs)\n"
                     "class _D:\n"
                     "    def m(self, xs):\n"
                     "        return list(xs)\n")
    assert [text for _, text in _collected_parameters(tree)] == [
        "list(xs)", "sorted(ys, key=len)", "set(xs)"]
