"""Benchmark runner for rhoest.

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Run it from the root of a checkout; it imports the package from ``src/``.
Each workload is a closed loop with one client that alternates its two op
kinds.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from a run in which every op is
executed once untraced and once traced.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("estimate", "montecarlo", "certify")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

# The end-to-end metrics of every workload, (name, unit): op1/op2 are its two
# op kinds, counted in calls, replicates, triples or solves.  Per-kind medians
# are printed but not in this list: on a shared host their run-to-run spread
# is about one and a half times that of the throughputs (see README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("op1_per_s", "1/s"),
    ("op2_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Layers each workload must exercise; an idle one means a wrapped name fell
# off the call path, and the traced run fails instead of reporting zeros.
ACTIVE_LAYERS = {
    "estimate": ("cli.main", "criterion.rho_estimate", "criterion.upsilon_all",
                 "psi.psi_pair", "densities.sqrt_value_matrix",
                 "densities.coord_values", "selection.select", "models.build"),
    "montecarlo": ("cli.main", "harness.mc_risk", "harness.mle_counterexample",
                   "criterion.rho_estimate", "criterion.upsilon_all",
                   "psi.psi_pair", "models.build", "densities.hellinger_sq",
                   "densities.coord_values"),
    "certify": ("cli.main", "psi.check_assumption", "quadrature.integrate_1d",
                "densities.hellinger_sq", "psi.psi_pair",
                "aggregation.saddle_point", "aggregation.inner_argmax",
                "aggregation.t_mix", "densities.coord_values"),
}
ACTIVE_COUNTERS = {"certify": ("quadrature.quadpack_calls",
                               "quadrature.integrand_evals")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite perfbench/reference.json from the "
                             "warm-up round of every workload")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "rhoest" / "__init__.py").is_file():
        sys.stderr.write(f"error: {src}/rhoest not found; run from a checkout "
                         f"of the repository\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all" and not args.write_reference:
        return run_all(args)
    setup = [] if (args.trace or args.setup_probe or args.write_reference) else [
        time_setup(args) for _ in range(SETUP_PROBES)]
    sys.path.insert(0, str(src))
    import rhoest
    if Path(rhoest.__file__).resolve().parent != (src / "rhoest").resolve():
        sys.stderr.write(f"error: imported rhoest from {rhoest.__file__}, "
                         f"not from {src}\n")
        return 2
    import workloads
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            return write_reference(str(work))
        wl = workloads.Workload(args.workload, "full", str(work))
        if args.setup_probe:
            for k, kind in enumerate(wl.kinds):
                wl.make_input(kind, args.seed, k)
            print("ready", flush=True)
            return 0
        return run_workload(args, wl, setup)
    finally:
        for f in work.iterdir():
            f.unlink()
        work.rmdir()


# -- set-up time -------------------------------------------------------------

def time_setup(args):
    """Seconds from process start until a fresh runner could run its first op."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


# -- host drift --------------------------------------------------------------

def calibrate():
    """Best of three timings of a fixed NumPy-plus-Python loop, in ms."""
    import numpy as np
    data = np.random.default_rng(0).random(200_000)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0.0
        for k in range(100_000):
            acc += k * 0.5
        np.sort(data).cumsum()
        np.sqrt(data * data + 1.0).sum()
        best = min(best, perf_counter() - t0)
    return best * 1e3


# -- one workload ------------------------------------------------------------

def load_reference():
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def warm_up(wl):
    """One op of each kind on the reference seed's inputs, checked against
    reference.json; excluded from every timing."""
    import workloads
    reference = load_reference()
    results = []
    for k, kind in enumerate(wl.kinds):
        r = wl.run_op(kind, wl.make_input(kind, workloads.REFERENCE_SEED, k))
        mismatch = workloads.compare_reference(kind, r.output, reference[kind])
        if mismatch:
            r.problems += mismatch
            r.failed = r.units
        results.append(r)
    return results


def run_workload(args, wl, setup):
    import numpy as np
    calibration = [calibrate()]
    results = warm_up(wl)
    if args.trace:
        measured, per_layer = traced_loop(args, wl)
    else:
        measured = untraced_loop(args, wl)
    calibration.append(calibrate())
    results += measured
    attempted = sum(r.units for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        for problem in r.problems:
            print(f"FAILED {r.kind}: {problem}")
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "scipy": __import__("scipy").__version__,
           "blas": blas_version(np), "commit": commit()}
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"machine.calibration_ms start={calibration[0]:.3f} "
          f"end={calibration[1]:.3f}")
    if args.trace:
        import tracing
        layer = per_layer(statistics.fmean(calibration))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _better in tracing.PER_LAYER}
    else:
        metrics = end_to_end(wl, measured, setup)
    print(f"error_rate = {failed / attempted:.6g} ratio (n={attempted} "
          f"{'replicates' if wl.name == 'montecarlo' else 'ops'})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{wl.name}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**result, "workload": wl.name, "seed": args.seed,
                   "seconds": args.seconds, "calibration_ms": calibration,
                   "env": env,
                   "latencies_ms": {k: [r.ms for r in measured if r.kind == k]
                                    for k in wl.kinds}},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


def untraced_loop(args, wl):
    results = []
    t0 = perf_counter()
    i = 0
    while perf_counter() - t0 < args.seconds:
        kind = wl.kinds[i % len(wl.kinds)]
        results.append(wl.run_op(kind, wl.make_input(kind, args.seed, i)))
        i += 1
    return results


def traced_loop(args, wl):
    """Run every op untraced and traced, in alternating order; per-layer
    metrics come from the traced copies, the overhead from both.  The
    allocation peak comes from a first pass of one op per kind, traced with
    tracemalloc on and kept out of every time."""
    import tracing
    alloc_tracer = tracing.Tracer(measure_alloc=True)
    results = []
    for k, kind in enumerate(wl.kinds):
        alloc_tracer.install()
        try:
            results.append(wl.run_op(kind, wl.make_input(kind, args.seed, k)))
        finally:
            alloc_tracer.uninstall()
    peak_alloc_mb = alloc_tracer.maxima["criterion.peak_alloc_mb"]
    tracer = tracing.Tracer()
    plain_ms = traced_ms = 0.0
    runtime_warnings = Counter()
    t0 = perf_counter()
    i = 0
    while perf_counter() - t0 < args.seconds:
        kind = wl.kinds[i % len(wl.kinds)]
        inp = wl.make_input(kind, args.seed, i)
        for traced in ((False, True) if (i // 2) % 2 == 0 else (True, False)):
            if not traced:
                r = wl.run_op(kind, inp)
                plain_ms += r.ms
                results.append(r)
                continue
            tracer.op_id = i
            tracer.install()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    r = wl.run_op(kind, inp)
            finally:
                tracer.uninstall()
            traced_ms += r.ms
            results.append(r)
            runtime_warnings[kind] += sum(
                issubclass(w.category, RuntimeWarning) for w in caught)
        i += 1
    tracing.require_active(tracer, ACTIVE_LAYERS[wl.name],
                           ACTIVE_COUNTERS.get(wl.name, ()))
    stats = tracer.layer_stats()
    for name in sorted(stats):
        calls, self_s = stats[name]
        print(f"span {name}: {calls} calls, {self_s * 1e3:.1f} ms self "
              f"over {i} traced ops")
    for kind in wl.kinds:
        print(f"numerics.runtime_warnings[{kind}] = {runtime_warnings[kind]}")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{wl.name}.json")

    def per_layer(calibration_ms):
        return tracing.per_layer_metrics(
            tracer, traced_ops=i,
            runtime_warnings=sum(runtime_warnings.values()) / i,
            overhead_ratio=traced_ms / plain_ms, calibration_ms=calibration_ms,
            peak_alloc_mb=peak_alloc_mb)

    return results, per_layer


# -- metrics -----------------------------------------------------------------

# Per op kind: workload-specific names for its median and throughput, printed
# beside the generic metrics, and the word for its unit of work.
NAMED = {
    "fit": ("fit_ms_p50", None, "call"),
    "select": ("select_ms_p50", None, "call"),
    "bench": (None, "bench_replicates_per_s", "replicate"),
    "demo-mle": (None, "mle_replicates_per_s", "replicate"),
    "check_assumption": ("certify_ms_p50", None, "triple"),
    "aggregate": ("aggregate_ms_p50", "aggregate_solves_per_s", "solve"),
}


def end_to_end(wl, measured, setup):
    metrics = {"setup_s": statistics.median(setup)}
    print(f"setup_s = {metrics['setup_s']:.4f} s (median of n={len(setup)} "
          f"fresh processes)")
    for slot, kind in enumerate(wl.kinds, start=1):
        ops = [r for r in measured if r.kind == kind]
        per_unit = [r.ms / r.units for r in ops]
        done = sum(r.units - r.failed for r in ops)
        busy_s = sum(r.ms for r in ops) / 1e3
        p50 = statistics.median(per_unit)
        rate = done / busy_s
        metrics[f"op{slot}_per_s"] = rate
        p50_name, rate_name, word = NAMED[kind]
        count = f"n={len(ops)} calls"
        if word != "call":
            count += f", {sum(r.units for r in ops)} {word}s"
        print(f"op{slot}_ms_p50 = {p50:.4f} ms per {word} ({kind}; {count})")
        print(f"op{slot}_per_s = {rate:.4f} 1/s ({kind} {word}s completed per "
              f"second of {kind} time; {count})")
        if p50_name:
            print(f"{p50_name} = {p50:.4f} ms ({count})")
        if rate_name:
            print(f"{rate_name} = {rate:.4f} 1/s ({count})")
        if kind == "check_assumption" and len(per_unit) >= 100:
            p90 = statistics.quantiles(per_unit, n=10)[-1]
            print(f"certify_ms_p90 = {p90:.4f} ms ({count})")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB (ru_maxrss, n=1 process)")
    units = dict(END_TO_END)
    return {name: {"value": metrics[name], "unit": units[name]}
            for name, _unit in END_TO_END}


# -- environment record ------------------------------------------------------

def blas_version(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')}-{blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def commit():
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- every workload ----------------------------------------------------------

def run_all(args):
    """Each workload in its own fresh process; a combined JSON line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"error: workload {name} exited with "
                             f"{proc.returncode}\n")
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def write_reference(workdir):
    import workloads
    ops = {}
    for name in WORKLOADS:
        w = workloads.Workload(name, "full", workdir)
        for k, kind in enumerate(w.kinds):
            r = w.run_op(kind, w.make_input(kind, workloads.REFERENCE_SEED, k))
            if r.problems:
                sys.stderr.write(f"error: reference op {kind} failed: {r.problems}\n")
                return 1
            ops[kind] = workloads.reference_view(kind, r.output)
    with open(BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.REFERENCE_SEED, "ops": ops}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {BENCH_DIR / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
