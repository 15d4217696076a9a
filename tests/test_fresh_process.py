"""Checks that need a fresh interpreter.

rhoest loads scipy, for QUADPACK, on the first quadrature call, and
nowhere else.  Its worker threads, and concurrent.futures with them, start
on the first criterion call with more than one block and CPU.  pytest's
``filterwarnings`` setting imports scipy.integrate before any test runs, so
an in-process test can neither see an eager scipy import come back nor
exercise a first load.  These tests run each check in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rhoest import QuadratureSpec, check_assumption, density_from_json, kernel_constants

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the sorted names of the loaded scipy modules as the last line.
SCIPY_MODULES = ("print(json.dumps(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy')))")


def python(*args, cwd=None):
    """Run a fresh interpreter with src/ on the path; returns (stdout, stderr)."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
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
from rhoest import QuadratureSpec, check_assumption, density_from_json, kernel_constants
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
