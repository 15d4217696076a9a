"""The benchmark's workloads: seeded inputs, the ops that drive rhoest, and
the checks on every op's output.

Every op goes through a public entry point: ``rhoest.cli.main(argv)`` for
the CLI commands, and ``rhoest.check_assumption`` where the CLI has no
command.  Both are looked up on their module at call time, so the tracer's
wrappers see them.  The inputs of op ``i`` depend only on the workload seed
and ``i``; the program receives the generated inputs plus, for its own
simulations, a ``--seed`` drawn from the same stream.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import rhoest
from rhoest import cli

# Seed of the warm-up round; its outputs are stored in reference.json.
REFERENCE_SEED = 0

KINDS = {
    "estimate": ("fit", "select"),
    "montecarlo": ("bench", "demo-mle"),
    "certify": ("check_assumption", "aggregate"),
}

# "full" is the benchmark; "tiny" keeps every code path at toy sizes for the
# smoke tests.
SIZES = {
    "full": {
        "fit": dict(n=2000, grid=(-4.0, 4.0, 0.05)),
        "select": dict(n=1000, grid=(-2.0, 2.0, 0.05), sds=(0.8, 1.0, 1.25)),
        "bench": dict(n=500, replications=20, grid=(-1.0, 1.0, 0.05)),
        "demo-mle": dict(n=100, reps=10),
        "check_assumption": dict(abs_tol=1e-6),
        "aggregate": dict(n=500),
    },
    "tiny": {
        "fit": dict(n=40, grid=(-1.0, 1.0, 0.25)),
        "select": dict(n=40, grid=(-1.0, 1.0, 0.5), sds=(0.8, 1.0, 1.25)),
        "bench": dict(n=40, replications=2, grid=(-1.0, 1.0, 0.5)),
        "demo-mle": dict(n=20, reps=2),
        "check_assumption": dict(abs_tol=1e-6),
        "aggregate": dict(n=60),
    },
}

AGGREGATE_EPS = 1e-4
AGGREGATE_CANDIDATES = (
    {"kind": "gaussian", "params": {"mean": -1.0, "sd": 1.0}},
    {"kind": "gaussian", "params": {"mean": 1.5, "sd": 0.7}},
    {"kind": "cauchy", "params": {"loc": 0.0, "scale": 2.0}},
    {"kind": "laplace", "params": {"loc": 0.0, "scale": 1.0}},
    {"kind": "gaussian", "params": {"mean": 0.0, "sd": 2.0}},
    {"kind": "gaussian", "params": {"mean": 1.0, "sd": 1.0}},
)
_TRIPLE_KINDS = (("gaussian", "mean", "sd"), ("laplace", "loc", "scale"),
                 ("cauchy", "loc", "scale"))

# Reference comparison: fields compared exactly, and per-field absolute
# tolerances (scaled by max(1, |reference|)) for the rest.
EXACT_FIELDS = ("chosen_index", "admissible_set", "selected_models", "failures",
                "pass", "converged")
TOLERANCES = {
    "trace": 1e-9,
    "per_replicate": 1e-9,
    "freq_event": 0.0,
    "freq_mle_at_max": 0.0,
    "rho_errors": 1e-9,
    "lhs_esp": 2e-6, "rhs_esp": 1e-9, "lhs_var": 2e-6, "rhs_var": 1e-9,
    "alpha_star": 1e-6,
}
REFERENCE_FIELDS = {
    "fit": ("chosen_index", "admissible_set", "trace"),
    "select": ("chosen_index", "admissible_set", "selected_models", "trace"),
    "bench": ("failures", "per_replicate"),
    "demo-mle": ("freq_event", "freq_mle_at_max", "rho_errors"),
    "check_assumption": ("pass", "lhs_esp", "rhs_esp", "lhs_var", "rhs_var"),
    "aggregate": ("converged", "alpha_star"),
}


@dataclass
class OpResult:
    kind: str
    ms: float
    units: int          # work attempted: calls, or Monte Carlo replicates
    failed: int = 0     # units that failed
    problems: list = field(default_factory=list)
    output: dict | None = None


def _grid_size(lo, hi, step):
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def _grid_family(grid, sd=1.0):
    lo, hi, step = grid
    return {"type": "gaussian_location_grid", "theta_min": lo, "theta_max": hi,
            "step": step, "sd": sd}


class Workload:
    """Inputs, execution and checks for one workload at one size."""

    def __init__(self, name, size, workdir):
        self.name = name
        self.kinds = KINDS[name]
        self.size = size
        self.sizes = SIZES[size]
        self.workdir = workdir

    # -- inputs -----------------------------------------------------------

    def make_input(self, kind, seed, index):
        """The inputs of op ``index`` of the given kind, from ``seed`` alone."""
        rng = np.random.default_rng([seed, index])
        p = self.sizes[kind]
        sim_seed = str(int(rng.integers(0, 2**31)))
        if kind == "fit":
            x = rng.normal(rng.uniform(-3.0, 3.0), 1.0, p["n"])
            return {"argv": ["fit"], "units": 1, "size": _grid_size(*p["grid"]),
                    "config": {"sample": x.tolist(), "family": _grid_family(p["grid"])}}
        if kind == "select":
            x = rng.normal(rng.uniform(-1.5, 1.5), rng.choice(p["sds"]), p["n"])
            models = [{"family": _grid_family(p["grid"], sd)} for sd in p["sds"]]
            return {"argv": ["select"], "units": 1, "models": len(models),
                    "size": len(models) * _grid_size(*p["grid"]),
                    "config": {"sample": x.tolist(), "models": models}}
        if kind == "bench":
            lo, hi, step = p["grid"]
            config = {
                "scenario": {
                    "kind": "contaminated", "n": p["n"], "eps": 0.05,
                    "replications": p["replications"],
                    "truth": {"kind": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                    "contaminant": {"kind": "cauchy",
                                    "params": {"loc": 0.0, "scale": 10.0}},
                },
                "estimator": {"type": "rho_gaussian_grid", "theta_min": lo,
                              "theta_max": hi, "step": step},
                "truth_for_loss": {"kind": "gaussian",
                                   "params": {"mean": 0.0, "sd": 1.0}},
            }
            return {"argv": ["bench", "--seed", sim_seed], "config": config,
                    "units": p["replications"]}
        if kind == "demo-mle":
            return {"argv": ["demo-mle", "--seed", sim_seed], "units": p["reps"],
                    "config": {"theta": 0.0, "n": p["n"], "reps": p["reps"]}}
        if kind == "check_assumption":
            triple = []
            for _ in range(3):
                name, loc, scale = _TRIPLE_KINDS[int(rng.integers(3))]
                triple.append({"kind": name, "params": {
                    loc: float(rng.uniform(-3.0, 3.0)),
                    scale: float(rng.uniform(0.5, 2.0))}})
            return {"kernel": "psi1" if (index // 2) % 2 == 0 else "psi2",
                    "triple": triple, "abs_tol": p["abs_tol"], "units": 1}
        if kind == "aggregate":
            # Two well-separated components that are not candidates: the
            # saddle point sits inside the simplex, and solve times stay
            # within a factor of ten of each other instead of spreading over
            # two orders of magnitude as they do when the truth lies on a face.
            w = rng.uniform(0.25, 0.75)
            left = rng.uniform(0.0, 1.0, p["n"]) < w
            x = np.where(left, rng.normal(-2.0, 0.5, p["n"]),
                         rng.normal(2.0, 0.5, p["n"]))
            return {"argv": ["aggregate"], "units": 1, "config": {
                "sample": x.tolist(), "candidates": list(AGGREGATE_CANDIDATES),
                "eps": AGGREGATE_EPS}}
        raise ValueError(f"unknown op kind {kind!r}")

    # -- execution --------------------------------------------------------

    def run_op(self, kind, inp):
        """Run one op, time it, and check its output."""
        units = inp["units"]
        t0 = time.perf_counter()
        try:
            if kind == "check_assumption":
                output = self._check_assumption(inp)
                code = 0
            else:
                code, output = self._run_cli(inp)
        except Exception as exc:  # an op that raises is a failed op, not a stop
            ms = (time.perf_counter() - t0) * 1e3
            return OpResult(kind, ms, units, units, [f"raised {exc!r}"])
        ms = output.pop("_ms")
        if code != 0:
            return OpResult(kind, ms, units, units, [f"exit code {code}"], None)
        problems, failed = check_output(kind, inp, output)
        return OpResult(kind, ms, units, failed, problems, output)

    def _run_cli(self, inp):
        path = os.path.join(self.workdir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inp["config"], fh)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main([*inp["argv"], "--config", path])
        ms = (time.perf_counter() - t0) * 1e3
        output = json.loads(buf.getvalue()) if code == 0 else {}
        output["_ms"] = ms
        return code, output

    @staticmethod
    def _check_assumption(inp):
        kernel = rhoest.kernel_constants(inp["kernel"])
        q, qp, r = (rhoest.density_from_json(d) for d in inp["triple"])
        quad = rhoest.QuadratureSpec(abs_tol=inp["abs_tol"])
        t0 = time.perf_counter()
        output = rhoest.check_assumption(kernel, q, qp, r, quad)
        output["_ms"] = (time.perf_counter() - t0) * 1e3
        return output


# -- output checks -----------------------------------------------------------

def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_output(kind, inp, out):
    """(problems, failed units) for one op's output; no problems means correct."""
    problems = []
    units = inp["units"]
    if kind in ("fit", "select"):
        trace = out["trace"]
        chosen, admissible = out["chosen_index"], out["admissible_set"]
        if len(trace) != inp["size"] or not _finite(trace):
            problems.append("trace has the wrong length or a non-finite value")
        elif min(trace) != out["upsilon_min"]:
            problems.append("trace minimum differs from upsilon_min")
        elif admissible != [i for i, u in enumerate(trace)
                            if u <= out["upsilon_min"] + out["slack"]]:
            problems.append("admissible_set does not match the trace")
        if not 0 <= chosen < len(trace) or chosen not in admissible:
            problems.append(f"chosen index {chosen} is not admissible")
        elif trace[chosen] != out["upsilon_at_chosen"]:
            problems.append("upsilon_at_chosen differs from the trace")
        if kind == "select":
            models = out["selected_models"]
            if not models or any(not 0 <= m < inp["models"] for m in models):
                problems.append(f"selected_models {models} is invalid")
    elif kind == "bench":
        losses = out["per_replicate"]
        if out["failures"]:
            problems.append(f"{out['failures']} replicates failed")
        if (len(losses) + out["failures"] != units or not _finite(losses)
                or not all(0.0 <= h <= 1.0 for h in losses)):
            problems.append("losses are missing, non-finite or outside [0, 1]")
        elif out["failures"]:
            return problems, out["failures"]
    elif kind == "demo-mle":
        if out["reps"] != units or len(out["rho_errors"]) != units:
            problems.append("wrong number of replicates")
        elif not _finite(out["rho_errors"]):
            problems.append("non-finite rho error")
        if out["freq_event"] > 0 and out["freq_mle_at_max"] != 1.0:
            problems.append(f"freq_mle_at_max = {out['freq_mle_at_max']} != 1")
    elif kind == "aggregate":
        alpha = out["alpha_star"]
        if not out["converged"] or not out["certificate"] < AGGREGATE_EPS:
            problems.append(f"not certified: converged={out['converged']}, "
                            f"certificate={out['certificate']}")
        if (len(alpha) != len(AGGREGATE_CANDIDATES) or not _finite(alpha)
                or min(alpha) < 0 or abs(sum(alpha) - 1.0) > 1e-9):
            problems.append("alpha_star is not a point of the simplex")
    elif kind == "check_assumption":
        if out["pass"] is not True:
            problems.append("assumption not certified (pass is false)")
        if not _finite([out[k] for k in ("lhs_esp", "rhs_esp", "lhs_var", "rhs_var")]):
            problems.append("non-finite certificate value")
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    return problems, (units if problems else 0)


# -- reference outputs -------------------------------------------------------

def reference_view(kind, out):
    return {k: out[k] for k in REFERENCE_FIELDS[kind]}


def _close(a, b, tol):
    if isinstance(b, list):
        return (isinstance(a, list) and len(a) == len(b)
                and all(_close(x, y, tol) for x, y in zip(a, b)))
    if isinstance(b, float) and math.isnan(b):
        return isinstance(a, float) and math.isnan(a)
    return abs(a - b) <= tol * max(1.0, abs(b))


def compare_reference(kind, out, reference):
    """Mismatches between an op's output and the stored reference view."""
    if out is None:
        return ["no output to compare with the reference"]
    problems = []
    for key, expected in reference.items():
        got = out.get(key)
        same = (got == expected if key in EXACT_FIELDS
                else _close(got, expected, TOLERANCES[key]))
        if not same:
            problems.append(f"{kind}.{key} differs from reference.json")
    return problems
