"""Command-line front end.

Subcommands: fit, select, aggregate, regress, bench, bounds, demo-mle.
All inputs arrive through a JSON config file; results go to stdout or to
--out as JSON or CSV.  Exit codes: 0 success, 2 configuration problem,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .aggregation import CandidateSet, saddle_point
from .criterion import DensityFamily, Penalty, rho_estimate
from .densities import (Density1D, Gaussian, ProductDensity, Sample,
                        density_from_json)
from .errors import (ConfigError, ContractViolationError,
                     DegenerateCandidatesError, QuadratureError)
from .harness import RiskReport, Scenario, export, mc_risk, mle_counterexample
from .models import (ModelDescriptor, build_exp_family_grid,
                     build_gaussian_location_grid, build_histogram_family,
                     dimension_bound_entropy, dimension_bound_finite,
                     dimension_bound_vc)
from .psi import kernel_constants
from .regression import (RegressionFunction, RegressionModel,
                         build_regression_family, fit_regression)
from .selection import ModelCollection, select, uniform_weights

__all__ = ["main"]


def _reject_constant(token):
    raise ConfigError(f"non-finite number {token} in config")


def _load_config(path):
    if path is None:
        raise ConfigError("this subcommand requires --config")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _sample_from_config(cfg) -> Sample:
    pts = np.asarray(_require(cfg, "sample"), dtype=float)
    kind = "pair" if pts.ndim == 2 else "scalar"
    try:
        return Sample(pts, kind=kind)
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from exc


def _density(obj) -> Density1D:
    try:
        return density_from_json(obj)
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from exc


def _family_from_config(spec: dict, n: int, c1: float) -> ModelDescriptor:
    kind = _require(spec, "type")
    if kind == "gaussian_location_grid":
        return build_gaussian_location_grid(
            _require(spec, "theta_min"), _require(spec, "theta_max"),
            _require(spec, "step"), spec.get("sd", 1.0), n, c1)
    if kind == "histogram":
        return build_histogram_family(
            _require(spec, "breakpoint_grids"), _require(spec, "k"), n,
            spec.get("mass_steps", 4), c1)
    if kind == "exp_family":
        return build_exp_family_grid(
            _require(spec, "basis"), _require(spec, "coefficient_grid"),
            spec.get("lo", float("-inf")), spec.get("hi", float("inf")), n,
            c1=c1)
    if kind == "explicit":
        entries = [ProductDensity(iid=_density(d), n=n)
                   for d in _require(spec, "densities")]
        fam = DensityFamily(entries)
        return ModelDescriptor(
            family=fam,
            dim_bound=dimension_bound_finite(len(fam)),
            bound_source="finite",
        )
    raise ConfigError(f"unknown family type {kind!r}")


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    X = _sample_from_config(cfg)
    kernel = kernel_constants(args.psi)
    desc = _family_from_config(_require(cfg, "family"), X.n, args.c1)
    pen = Penalty({int(k): float(v) for k, v in cfg.get("penalty", {}).items()})
    fit = rho_estimate(X, desc.family, pen, kernel,
                       slack=args.kappa_multiplier * kernel.kappa / 25.0)
    payload = fit.to_json()
    payload["chosen_label"] = desc.family.labels[fit.chosen_index]
    _emit(payload, args)
    return 0


def _cmd_select(args) -> int:
    cfg = _load_config(args.config)
    X = _sample_from_config(cfg)
    kernel = kernel_constants(args.psi)
    model_specs = _require(cfg, "models")
    default_delta = uniform_weights(len(model_specs))
    models = []
    for spec in model_specs:
        desc = _family_from_config(_require(spec, "family"), X.n, args.c1)
        desc.delta_weight = float(spec.get("delta", default_delta))
        models.append(desc)
    coll = ModelCollection(models, kernel)
    result = select(X, coll, slack_multiplier=args.kappa_multiplier)
    payload = result["fit"].to_json()
    payload["chosen_label"] = coll.union_family.labels[result["fit"].chosen_index]
    payload["selected_models"] = result["selected_models"]
    _emit(payload, args)
    return 0


def _cmd_aggregate(args) -> int:
    cfg = _load_config(args.config)
    X = _sample_from_config(cfg)
    kernel = kernel_constants(args.psi)
    densities = [ProductDensity(iid=_density(d), n=X.n)
                 for d in _require(cfg, "candidates")]
    cs = CandidateSet(densities, X)
    result = saddle_point(X, cs, kernel,
                          eps=float(cfg.get("eps", 1e-4)),
                          max_outer=int(cfg.get("max_outer", 1000)))
    _emit({
        "alpha_star": list(result["alpha_star"].weights),
        "certificate": result["certificate"],
        "iterations": result["iterations"],
        "converged": result["converged"],
        "condition_number": result["condition_number"],
    }, args)
    return 0


def _cmd_regress(args) -> int:
    cfg = _load_config(args.config)
    X = _sample_from_config(cfg)
    if X.kind != "pair":
        raise ConfigError("regress expects a sample of [w, y] pairs")
    error_specs = _require(cfg, "error_models")
    fun_spec = _require(cfg, "function_family")
    grid = fun_spec.get("theta_grid")
    if grid is None:
        raise ConfigError("function_family.theta_grid is required")
    thetas = np.arange(float(_require(grid, "min")),
                       float(_require(grid, "max")) + float(_require(grid, "step")) / 2,
                       float(_require(grid, "step")))
    functions = [RegressionFunction(lambda w, _t=float(t): _t * w,
                                    label=f"theta={t:g}") for t in thetas]
    default_delta = uniform_weights(len(error_specs))
    models = [RegressionModel(_density(spec), functions, vc_index_f=3,
                              delta_weight=default_delta)
              for spec in error_specs]
    coll = build_regression_family(models, X.n, kernel_constants(args.psi),
                                   c1=args.c1)
    result = fit_regression(X, coll, models,
                            slack_multiplier=args.kappa_multiplier)
    _emit({
        "g_id": result.f_hat.label,
        "r_id": result.s_hat.to_json(),
        "criterion": result.fit.upsilon_at_chosen,
        "selected_models": list(result.selected_models),
    }, args)
    return 0


def _scenario_from_config(cfg: dict, seed: int) -> Scenario:
    spec = _require(cfg, "scenario")
    kind = spec.get("kind", "iid")
    try:
        return Scenario(
            truth=_density(_require(spec, "truth")),
            n=int(_require(spec, "n")),
            replications=int(_require(spec, "replications")),
            seed=seed,
            kind=kind,
            contaminant=(_density(spec["contaminant"])
                         if "contaminant" in spec else None),
            eps=float(spec.get("eps", 0.0)),
            outlier_indices=tuple(spec.get("outlier_indices", ())),
            outlier_points=tuple(spec.get("outlier_points", ())),
        )
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from exc


def _estimator_from_config(cfg: dict, n: int, kernel, c1: float,
                           slack_multiplier: float):
    """The estimator for samples of size ``n``; a grid is built once, here."""
    spec = _require(cfg, "estimator")
    kind = _require(spec, "type")
    if kind == "rho_gaussian_grid":
        family = build_gaussian_location_grid(
            float(_require(spec, "theta_min")), float(_require(spec, "theta_max")),
            float(_require(spec, "step")), float(spec.get("sd", 1.0)), n, c1).family
        slack = slack_multiplier * kernel.kappa / 25.0

        def estimate(sample: Sample) -> Density1D:
            fit = rho_estimate(sample, family, kernel=kernel, slack=slack)
            return family[fit.chosen_index].marginal

        return estimate
    if kind == "gaussian_mle_plugin":
        sd = float(spec.get("sd", 1.0))

        def estimate(sample: Sample) -> Density1D:
            return Gaussian(float(np.mean(sample.points)), sd)

        return estimate
    raise ConfigError(f"unknown estimator type {kind!r}")


def _cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    kernel = kernel_constants(args.psi)
    scenario = _scenario_from_config(cfg, args.seed)
    estimator = _estimator_from_config(cfg, scenario.n, kernel, args.c1,
                                       args.kappa_multiplier)
    truth_for_loss = (_density(cfg["truth_for_loss"])
                      if "truth_for_loss" in cfg else scenario.truth)
    report = mc_risk(scenario, estimator, truth_for_loss)
    if args.out:
        export(report, args.format, args.out)
    elif args.format == "csv":
        raise ConfigError("csv output requires --out")
    else:
        _emit(report.to_json(), args)
    return 0


def _cmd_bounds(args) -> int:
    cfg = _load_config(args.config)
    out = {}
    if "finite" in cfg:
        out["finite"] = dimension_bound_finite(int(cfg["finite"]))
    if "vc" in cfg:
        out["vc"] = dimension_bound_vc(float(_require(cfg["vc"], "v")),
                                       int(_require(cfg["vc"], "n")), args.c1)
    if "entropy" in cfg:
        out["entropy"] = dimension_bound_entropy(float(cfg["entropy"]))
    if not out:
        raise ConfigError("bounds config needs one of: finite, vc, entropy")
    _emit(out, args)
    return 0


def _cmd_demo_mle(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    report = mle_counterexample(
        theta=float(cfg.get("theta", 0.0)),
        n=int(cfg.get("n", 100)),
        reps=int(cfg.get("reps", 200)),
        seed=args.seed,
        grid_step=float(cfg.get("grid_step", 0.1)),
        kernel=kernel_constants(args.psi),
    )
    _emit(report, args)
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "select": _cmd_select,
    "aggregate": _cmd_aggregate,
    "regress": _cmd_regress,
    "bench": _cmd_bench,
    "bounds": _cmd_bounds,
    "demo-mle": _cmd_demo_mle,
}


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
    if args.kappa_multiplier <= 0 or args.c1 <= 0:
        sys.stderr.write("error: --kappa-multiplier and --c1 must be positive\n")
        return 2
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ContractViolationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (QuadratureError, DegenerateCandidatesError, FloatingPointError,
            ZeroDivisionError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
