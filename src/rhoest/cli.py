"""Command-line front end.

Subcommands: fit, select, aggregate, regress, bench, bounds, demo-mle.
Each ``_cmd_*`` maps the JSON config, which :func:`main` reads once, and
the arguments to a result dict; :func:`main` writes it to stdout or --out as
strict JSON, where a NaN or infinity is a numerical failure (``bench --format
csv`` writes CSV).  Exit codes: 0 success, 2 configuration problem,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .aggregation import CandidateSet, saddle_point
from .criterion import DensityFamily, Penalty, rho_estimate
from .densities import Density1D, Gaussian, ProductDensity, Sample, density_from_json
from .errors import (ConfigError, ContractViolationError,
                     DegenerateCandidatesError, _finite, _scale, _vector)
from .harness import (Scenario, _csv_text, _json_text, mc_risk,
                      mle_counterexample)
from .models import (ModelDescriptor, _check_grid, _theta_labels,
                     build_exp_family_grid, build_gaussian_location_grid,
                     build_histogram_family, dimension_bound_entropy,
                     dimension_bound_finite, dimension_bound_vc)
from .psi import kernel_constants
from .regression import (RegressionFunction, RegressionModel,
                         build_regression_family, fit_regression)
from .selection import ModelCollection, select, uniform_weights

__all__ = ["main"]


def _reject_constant(token):
    raise ConfigError(f"non-finite number {token} in config")


def _finite_float(token):
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"a number in config overflows a float: {token:.24}")
    return value


def _finite_int(token):
    _finite_float(token)  # ints reach float arithmetic; also caps int()'s digits
    return int(token)


def _load_config(path):
    if path is None:
        raise ConfigError("this subcommand requires --config")
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_reject_constant,
                            parse_float=_finite_float, parse_int=_finite_int)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _get(cfg: dict, key: str, default=None):
    """cfg[key] from a config section, which must be a JSON object.

    A missing key gives ``default``, and is an error when there is none.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"expected a JSON object with key {key!r}, got {cfg!r}")
    if key in cfg:
        return cfg[key]
    if default is None:
        raise ConfigError(f"config is missing required key {key!r}")
    return default


def _list(cfg: dict, key: str, least: int = 0) -> list:
    """cfg[key], which must be a JSON list of at least ``least`` items."""
    value = _get(cfg, key)
    if not isinstance(value, list):
        raise ConfigError(f"config key {key!r} must be a list, got {value!r}")
    if len(value) < least:
        raise ConfigError(f"config key {key!r} must hold >= {least} items, got {len(value)}")
    return value


def _number(cfg: dict, key: str, default=None, integer=False):
    """cfg[key] as a finite float, or as an int if ``integer``.

    A missing key gives ``default``, and is an error when there is none.
    Non-integral values of an integer key are rejected, not converted.
    """
    value = _finite(f"config key {key!r}", _get(cfg, key, default))
    if integer and not float(value).is_integer():
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return int(value) if integer else float(value)


def _sample_from_config(cfg) -> Sample:
    points = _get(cfg, "sample")
    pair = isinstance(points, list) and bool(points) and isinstance(points[0], list)
    try:
        return Sample(points, kind="pair" if pair else "scalar")
    except ContractViolationError as exc:
        raise ConfigError(f"bad sample: {exc}") from exc


def _family_from_config(spec: dict, n: int, c1: float) -> ModelDescriptor:
    kind = _get(spec, "type")
    if kind == "gaussian_location_grid":
        return build_gaussian_location_grid(
            _number(spec, "theta_min"), _number(spec, "theta_max"),
            _number(spec, "step"), _number(spec, "sd", 1.0), n, c1)
    if kind == "histogram":
        grids = [_vector("breakpoint_grids row", row)
                 for row in _list(spec, "breakpoint_grids")]
        return build_histogram_family(
            grids, _number(spec, "k", integer=True), n,
            _number(spec, "mass_steps", 4, integer=True), c1)
    if kind == "exp_family":
        return build_exp_family_grid(
            _list(spec, "basis"), _list(spec, "coefficient_grid"),
            _get(spec, "lo", float("-inf")), _get(spec, "hi", float("inf")), n,
            c1=c1)
    if kind == "explicit":
        entries = [ProductDensity(iid=density_from_json(d), n=n)
                   for d in _list(spec, "densities")]
        return ModelDescriptor(family=DensityFamily(entries),
                               dim_bound=dimension_bound_finite(len(entries)))
    raise ConfigError(f"unknown family type {kind!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_fit(cfg: dict, args) -> dict:
    X = _sample_from_config(cfg)
    kernel = kernel_constants(args.psi)
    desc = _family_from_config(_get(cfg, "family"), X.n, args.c1)
    penalty = _get(cfg, "penalty", {})
    try:
        pen = Penalty({int(k): _number(penalty, k) for k in penalty})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad penalty: {exc}") from exc
    fit = rho_estimate(X, desc.family, pen, kernel,
                       slack=args.kappa_multiplier * kernel.kappa / 25.0)
    payload = fit.to_json()
    payload["chosen_label"] = desc.family.labels[fit.chosen_index]
    return payload


def _cmd_select(cfg: dict, args) -> dict:
    X = _sample_from_config(cfg)
    kernel = kernel_constants(args.psi)
    model_specs = _list(cfg, "models", least=1)
    default_delta = uniform_weights(len(model_specs))
    models = []
    for spec in model_specs:
        desc = _family_from_config(_get(spec, "family"), X.n, args.c1)
        models.append(dataclasses.replace(
            desc, delta_weight=_number(spec, "delta", default_delta)))
    coll = ModelCollection(models, kernel)
    result = select(X, coll, slack_multiplier=args.kappa_multiplier)
    payload = result["fit"].to_json()
    payload["chosen_label"] = coll.union_family.labels[result["fit"].chosen_index]
    payload["selected_models"] = result["selected_models"]
    return payload


def _cmd_aggregate(cfg: dict, args) -> dict:
    X = _sample_from_config(cfg)
    kernel = kernel_constants(args.psi)
    densities = [ProductDensity(iid=density_from_json(d), n=X.n)
                 for d in _list(cfg, "candidates")]
    cs = CandidateSet(densities, X)
    result = saddle_point(cs, kernel,
                          eps=_number(cfg, "eps", 1e-4),
                          max_outer=_number(cfg, "max_outer", 1000, integer=True))
    return {**result, "alpha_star": list(result["alpha_star"].weights)}


def _cmd_regress(cfg: dict, args) -> dict:
    X = _sample_from_config(cfg)
    if X.kind != "pair":
        raise ConfigError("regress expects a sample of [w, y] pairs")
    error_specs = _list(cfg, "error_models", least=1)
    grid = _get(_get(cfg, "function_family"), "theta_grid")
    thetas = _check_grid(_number(grid, "min"), _number(grid, "max"),
                         _number(grid, "step"))
    functions = [RegressionFunction(lambda w, _t=t: _t * w, label=label)
                 for t, label in zip(thetas, _theta_labels(thetas))]
    default_delta = uniform_weights(len(error_specs))
    models = [RegressionModel(density_from_json(spec), functions, vc_index_f=3,
                              delta_weight=default_delta)
              for spec in error_specs]
    coll = build_regression_family(models, X.n, kernel_constants(args.psi),
                                   c1=args.c1)
    result = fit_regression(X, coll, slack_multiplier=args.kappa_multiplier)
    return {
        "g_id": result.f_hat.label,
        "r_id": result.s_hat.to_json(),
        "criterion": result.fit.upsilon_at_chosen,
        "selected_models": list(result.selected_models),
    }


def _scenario_from_config(cfg: dict, seed: int) -> Scenario:
    spec = _get(cfg, "scenario")
    return Scenario(
        truth=density_from_json(_get(spec, "truth")),
        n=_number(spec, "n", integer=True),
        replications=_number(spec, "replications", integer=True),
        seed=seed,
        kind=_get(spec, "kind", "iid"),
        contaminant=(density_from_json(spec["contaminant"])
                     if "contaminant" in spec else None),
        eps=_number(spec, "eps", 0.0),
        outlier_indices=_get(spec, "outlier_indices", ()),
        outlier_points=_get(spec, "outlier_points", ()),
    )


def _estimator_from_config(cfg: dict, n: int, kernel, c1: float,
                           slack_multiplier: float):
    """The estimator for samples of size ``n``; a grid is built once, here."""
    spec = _get(cfg, "estimator")
    kind = _get(spec, "type")
    if kind == "rho_gaussian_grid":
        family = _family_from_config(
            {**spec, "type": "gaussian_location_grid"}, n, c1).family
        slack = slack_multiplier * kernel.kappa / 25.0

        def estimate(sample: Sample) -> Density1D:
            fit = rho_estimate(sample, family, kernel=kernel, slack=slack)
            return family[fit.chosen_index].marginal

        return estimate
    if kind == "gaussian_mle_plugin":
        sd = _number(spec, "sd", 1.0)

        def estimate(sample: Sample) -> Density1D:
            return Gaussian(float(np.mean(sample.points)), sd)

        return estimate
    raise ConfigError(f"unknown estimator type {kind!r}")


def _cmd_bench(cfg: dict, args) -> dict:
    kernel = kernel_constants(args.psi)
    scenario = _scenario_from_config(cfg, args.seed)
    estimator = _estimator_from_config(cfg, scenario.n, kernel, args.c1,
                                       args.kappa_multiplier)
    truth_for_loss = (density_from_json(cfg["truth_for_loss"])
                      if "truth_for_loss" in cfg else scenario.truth)
    return mc_risk(scenario, estimator, truth_for_loss).to_json()


def _cmd_bounds(cfg: dict, args) -> dict:
    out = {}
    if "finite" in cfg:
        out["finite"] = dimension_bound_finite(_number(cfg, "finite", integer=True))
    if "vc" in cfg:
        out["vc"] = dimension_bound_vc(_number(cfg["vc"], "v"),
                                       _number(cfg["vc"], "n", integer=True), args.c1)
    if "entropy" in cfg:
        out["entropy"] = dimension_bound_entropy(_number(cfg, "entropy"))
    if not out:
        raise ConfigError("bounds config needs one of: finite, vc, entropy")
    return out


def _cmd_demo_mle(cfg: dict, args) -> dict:
    return mle_counterexample(
        theta=_number(cfg, "theta", 0.0),
        n=_number(cfg, "n", 100, integer=True),
        reps=_number(cfg, "reps", 200, integer=True),
        seed=args.seed,
        grid_step=_number(cfg, "grid_step", 0.1),
        kernel=kernel_constants(args.psi),
    )


_COMMANDS = {
    "fit": _cmd_fit,
    "select": _cmd_select,
    "aggregate": _cmd_aggregate,
    "regress": _cmd_regress,
    "bench": _cmd_bench,
    "bounds": _cmd_bounds,
    "demo-mle": _cmd_demo_mle,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhoest",
        description="Robust density estimation, model selection, aggregation "
                    "and regression via a bounded Hellinger-type criterion.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="json")
    parser.add_argument("--psi", choices=["psi1", "psi2"], default="psi2")
    parser.add_argument("--kappa-multiplier", type=float, default=1.0,
                        help="scales the admissibility slack kappa/25")
    parser.add_argument("--c1", type=float, default=1.0,
                        help="universal constant in the VC dimension bound")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _scale("--kappa-multiplier", args.kappa_multiplier)
        _scale("--c1", args.c1)
        csv = args.format == "csv"
        if csv and (args.command != "bench" or not args.out):
            raise ConfigError("--format csv is for bench with --out only")
        cfg = ({} if args.config is None and args.command == "demo-mle"
               else _load_config(args.config))
        result = _COMMANDS[args.command](cfg, args)
        text = _csv_text(result["per_replicate"]) if csv else _json_text(result)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except (ConfigError, ContractViolationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ArithmeticError, DegenerateCandidatesError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
