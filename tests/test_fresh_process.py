"""Checks that need a fresh interpreter.

rhoest loads QUADPACK, scipy's compiled module alone, on the first
quadrature call, and no scipy module anywhere else; the scipy.integrate
package, which would bring scipy.optimize, linalg, sparse and special with
it, is never imported.  Its worker threads, and concurrent.futures with them, start
on the first criterion call with more than one block and CPU.  pytest's
``filterwarnings`` setting imports scipy.integrate before any test runs, so
an in-process test can neither see an eager scipy import come back nor
exercise a first load.  A run pinned to one CPU, or with BLAS on one
thread, needs a process of its own too.  These tests run each check in a
subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rhoest import (Gaussian, Laplace, QuadratureSpec, check_assumption,
                    density_from_json, hellinger_sq, kernel_constants)

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the sorted names of the loaded scipy modules as the last line.
SCIPY_MODULES = ("print(json.dumps(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy')))")


def python(*args, cwd=None, env=None):
    """Run a fresh interpreter with src/ on the path and RuntimeWarnings
    errors, as here; returns (stdout, stderr)."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **(env or {}), "PYTHONWARNINGS": "error::RuntimeWarning",
           "PYTHONPATH": os.pathsep.join([str(SRC), path] if path else [str(SRC)])}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def scipy_imports(importtime_log):
    """Names of the scipy modules in a ``python -X importtime`` log."""
    names = (line.rsplit("|", 1)[-1].strip()
             for line in importtime_log.splitlines()
             if line.startswith("import time:"))
    return sorted(n for n in names if n.split(".")[0] == "scipy")


# Prints the thread count and whether concurrent.futures is loaded.
THREADS = ("print(json.dumps([threading.active_count(), "
           "'concurrent.futures' in sys.modules]))")


def test_import_loads_no_scipy():
    out, _ = python("-c", f"import json, sys, rhoest, rhoest.cli; {SCIPY_MODULES}")
    assert json.loads(out) == []


def test_import_starts_no_thread():
    out, _ = python("-c", f"import json, sys, threading, rhoest, rhoest.cli; {THREADS}")
    assert json.loads(out) == [1, False]


SAMPLE = np.random.default_rng(3).normal(0.0, 1.0, 30).tolist()
TINY = {
    "fit": {"sample": SAMPLE,
            "family": {"type": "gaussian_location_grid", "theta_min": -1,
                       "theta_max": 1, "step": 0.5}},
    "bench": {"scenario": {"kind": "contaminated", "n": 30, "replications": 2,
                           "eps": 0.1,
                           "truth": {"kind": "gaussian",
                                     "params": {"mean": 0.0, "sd": 1.0}},
                           "contaminant": {"kind": "cauchy",
                                           "params": {"loc": 0.0, "scale": 1.0}}},
              "estimator": {"type": "rho_gaussian_grid", "theta_min": -1,
                            "theta_max": 1, "step": 0.5}},
    "regress": {"sample": [[w, 0.5 * w + e] for w, e in
                           zip(np.linspace(-2.0, 2.0, 30), SAMPLE)],
                "error_models": [{"kind": "gaussian",
                                  "params": {"mean": 0.0, "sd": 1.0}}],
                "function_family": {"theta_grid": {"min": 0.0, "max": 1.0,
                                                   "step": 0.25}}},
    # Four candidates around a two-component sample: the inner solves take
    # interior line-search steps.
    "aggregate": {"sample": (np.where(np.arange(30) < 12, -2.0, 2.0)
                             + 0.5 * np.array(SAMPLE)).tolist(),
                  "candidates": [{"kind": "gaussian", "params": {"mean": m, "sd": 0.5}}
                                 for m in (-2.5, -1.5, 1.5, 2.5)]},
}


@pytest.mark.parametrize("command", sorted(TINY))
def test_cli_run_loads_no_scipy(tmp_path, command):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(TINY[command]))
    out, log = python("-X", "importtime", "-m", "rhoest.cli", command,
                      "--config", str(cfg), "--seed", "1")
    assert json.loads(out)
    assert "import time:" in log
    assert scipy_imports(log) == []


def test_aggregate_starts_no_thread(tmp_path):
    # Every criterion call of an aggregate solve is a single block.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(TINY["aggregate"]))
    run = ("import json, sys, threading; from rhoest.cli import main; "
           f"main(['aggregate', '--config', sys.argv[1]]); {THREADS}")
    out, _ = python("-c", run, str(cfg))
    result, threads = out.rstrip().rsplit("\n", 1)
    assert json.loads(result)
    assert json.loads(threads) == [1, False]


TRIPLES = [
    ({"kind": "gaussian", "params": {"mean": 0.3, "sd": 1.2}},
     {"kind": "laplace", "params": {"loc": -0.5, "scale": 0.8}},
     {"kind": "cauchy", "params": {"loc": 1.0, "scale": 1.5}}),
    # r and q both Cauchy: h^2(r, q) takes the AGM closed form.
    ({"kind": "cauchy", "params": {"loc": -1.0, "scale": 0.7}},
     {"kind": "gaussian", "params": {"mean": 0.5, "sd": 1.0}},
     {"kind": "cauchy", "params": {"loc": 0.2, "scale": 1.3}}),
]

CHECK = """
import json, sys
from rhoest import (Gaussian, Laplace, QuadratureSpec, check_assumption,
                    density_from_json, hellinger_sq, kernel_constants)
kernel, triple = sys.argv[1], json.loads(sys.argv[2])
q, qp, r = (density_from_json(d) for d in triple)
out = check_assumption(kernel_constants(kernel), q, qp, r, QuadratureSpec(abs_tol=1e-6))
print(repr(out))
"""


@pytest.mark.parametrize("kernel", ["psi1", "psi2"])
@pytest.mark.parametrize("triple", TRIPLES, ids=["gaussian-laplace-cauchy",
                                                 "cauchy-gaussian-cauchy"])
def test_first_quadrature_matches_in_process(kernel, triple):
    out, _ = python("-c", CHECK, kernel, json.dumps(triple))
    q, qp, r = (density_from_json(d) for d in triple)
    want = check_assumption(kernel_constants(kernel), q, qp, r,
                            QuadratureSpec(abs_tol=1e-6))
    assert out == repr(want) + "\n"


def test_cauchy_affinity_loads_no_scipy():
    run = ("import json, sys; from rhoest import Cauchy, hellinger_sq; "
           "print(hellinger_sq(Cauchy(-1.0, 0.7), Cauchy(0.2, 1.3))); "
           f"{SCIPY_MODULES}")
    out, _ = python("-c", run)
    h2, loaded = out.splitlines()
    assert 0.0 < float(h2) < 1.0
    assert json.loads(loaded) == []


QUADRATURE = """
import json, math, os, sys
from rhoest import (Gaussian, Laplace, QuadratureSpec, check_assumption,
                    density_from_json, hellinger_sq, kernel_constants, quadrature)
from rhoest.cli import main
q, qp, r = (density_from_json(d) for d in json.loads(sys.argv[1]))
check_assumption(kernel_constants("psi2"), q, qp, r, QuadratureSpec(abs_tol=1e-6))
h2 = hellinger_sq(Gaussian(0.0, 1.0), Laplace(0.0, 1.0))
code = main(["bench", "--config", sys.argv[2], "--seed", "1", "--out", os.devnull])
heavy = sorted(m for m in sys.modules if m.split(".")[:2] in (
    ["scipy", "integrate"], ["scipy", "optimize"], ["scipy", "linalg"],
    ["scipy", "sparse"], ["scipy", "special"]))
import scipy.integrate
fn = lambda x: math.exp(-x * x)
ours = quadrature.integrate.quad(fn, 0.0, math.inf, epsabs=1e-10, epsrel=0.0)
theirs = scipy.integrate.quad(fn, 0.0, math.inf, epsabs=1e-10, epsrel=0.0)
print(json.dumps([h2, heavy, ours, theirs, code]))
"""


def test_quadrature_loads_no_scipy_subpackage(tmp_path):
    # The bench's loss against a histogram takes QUADPACK's float nodes to a
    # kind that once converted each node to an array.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**TINY["bench"], "truth_for_loss": {
        "kind": "histogram", "params": {"breaks": [-2, 0, 1, 2],
                                        "heights": [0.25, 0.3, 0.2]}}}))
    out, _ = python("-c", QUADRATURE, json.dumps(TRIPLES[0]), str(cfg))
    h2, heavy, ours, theirs, code = json.loads(out)
    assert heavy == [] and code == 0
    assert h2 == hellinger_sq(Gaussian(0.0, 1.0), Laplace(0.0, 1.0))
    assert ours == theirs


# Five runs that reach the float32 screen of the square criterion
# (N * N * n >= 2**21): fit on a 161-point grid under each kernel, select on
# a union of 243 entries, and demo-mle at n = 100 under each kernel.  The
# sample's points at +-1000 (every density 0), near +-12 and +-15 (roots
# outside the float32 ranges, summed in float64) and at +-40 (psi1's
# rescale) reach every path of the screen and its certificate, and so do
# demo-mle's infinite spike roots and its finite ones below float32's range.
SCREENED = """
import json, os, sys
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from rhoest.cli import main
for argv in json.loads(sys.argv[2]):
    if main(argv):
        sys.exit(f"{argv} failed")
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_screened_runs_print_the_same_bytes_on_any_thread_split(tmp_path):
    # The criterion shares its blocks out over the CPUs the process may run
    # on, and its screen's BLAS sums run with BLAS threaded or not; every
    # split must print the one-thread bytes.
    x = np.random.default_rng(26).normal(0.5, 1.0, 1000)
    x[:8] = -1000.0, 1000.0, -12.0, 12.5, -15.0, 15.5, -40.0, 40.0
    grid = {"type": "gaussian_location_grid", "step": 0.05}
    fit, select, mle = (tmp_path / f"{name}.json" for name in ("fit", "select", "mle"))
    fit.write_text(json.dumps(
        {"sample": x.tolist(), "family": {**grid, "theta_min": -4, "theta_max": 4}}))
    select.write_text(json.dumps({"sample": x.tolist(), "models": [
        {"family": {**grid, "theta_min": -2, "theta_max": 2, "sd": sd}}
        for sd in (0.8, 1.0, 1.25)]}))
    mle.write_text(json.dumps({"theta": 0.0, "n": 100, "reps": 10}))
    runs = [["select", "--config", str(select)]]
    for psi in ("psi1", "psi2"):
        runs += [["fit", "--config", str(fit), "--psi", psi],
                 ["demo-mle", "--config", str(mle), "--seed", "4", "--psi", psi]]
    all_cpus, _ = python("-c", SCREENED, "all-cpus", json.dumps(runs))
    assert python("-c", SCREENED, "one-cpu", json.dumps(runs))[0] == all_cpus
    assert python("-c", SCREENED, "all-cpus", json.dumps(runs),
                  env={"OPENBLAS_NUM_THREADS": "1"})[0] == all_cpus
    assert all_cpus.count('"chosen_label": "theta=0.5"') == 3  # fits and select


def test_export_to_a_bool_path_leaves_stdout_open():
    # export(report, "csv", True) once wrote the report to descriptor 1, the
    # child's stdout, and closed it, so that every later write failed.
    out, _ = python("-c", "from rhoest import ContractViolationError, RiskReport, export\n"
                          "try:\n"
                          "    export(RiskReport(0.5, 0.5, 0.0, (0.25,)), 'csv', True)\n"
                          "except ContractViolationError as exc:\n"
                          "    print(exc)\n"
                          "print('stdout is open')\n")
    assert out == "path must be a str or PathLike, got bool\nstdout is open\n"
