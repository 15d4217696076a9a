"""Smoke tests of the benchmark itself: every workload at toy size, the
output checks against corrupted results, and the tracer's safety rules."""

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rhoest  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny_ops(name, tmp_path, per_kind=2):
    wl = workloads.Workload(name, "tiny", str(tmp_path))
    results = []
    for i in range(per_kind * len(wl.kinds)):
        kind = wl.kinds[i % len(wl.kinds)]
        results.append(wl.run_op(kind, wl.make_input(kind, 7, i)))
    return results


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_runs_clean(name, tmp_path):
    for r in tiny_ops(name, tmp_path):
        assert r.problems == [] and r.failed == 0, (r.kind, r.problems)
        assert r.ms > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_traced(name, tmp_path):
    tracer = tracing.Tracer()
    originals = (rhoest.cli.main, rhoest.psi.psi_pair, rhoest.criterion.psi_pair)
    tracer.install()
    try:
        results = tiny_ops(name, tmp_path)
    finally:
        tracer.uninstall()
    assert (rhoest.cli.main, rhoest.psi.psi_pair, rhoest.criterion.psi_pair) == originals
    assert all(not r.problems for r in results)
    tracing.require_active(tracer, run.ACTIVE_LAYERS[name],
                           run.ACTIVE_COUNTERS.get(name, ()))
    metrics = tracing.per_layer_metrics(tracer, len(results), 0, 1.0, 1.0, 0.0)
    assert set(metrics) == {name for name, _u, _b in tracing.PER_LAYER}


def test_allocation_tracing_only_when_asked(tmp_path):
    for measure_alloc in (False, True):
        tracer = tracing.Tracer(measure_alloc=measure_alloc)
        tracer.install()
        try:
            tiny_ops("estimate", tmp_path, per_kind=1)
        finally:
            tracer.uninstall()
        assert not tracemalloc.is_tracing()
        peak = tracer.maxima["criterion.peak_alloc_mb"]
        assert (peak > 0.0) if measure_alloc else peak == 0.0


def test_tracer_fails_loudly_when_a_wrapped_name_is_gone(monkeypatch):
    monkeypatch.delattr(rhoest.aggregation, "inner_argmax")
    original_main = rhoest.cli.main
    with pytest.raises(tracing.TracerError, match="inner_argmax no longer exists"):
        tracing.Tracer().install()
    assert rhoest.cli.main is original_main


def test_tracer_fails_loudly_when_a_layer_is_idle(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tiny_ops("certify", tmp_path, per_kind=1)
    finally:
        tracer.uninstall()
    with pytest.raises(tracing.TracerError, match="criterion.upsilon_all"):
        tracing.require_active(tracer, run.ACTIVE_LAYERS["estimate"])


def test_checks_catch_corrupted_results(tmp_path):
    wl = workloads.Workload("estimate", "tiny", str(tmp_path))
    inp = wl.make_input("fit", 7, 0)
    good = wl.run_op("fit", inp).output
    assert workloads.check_output("fit", inp, good) == ([], 0)

    outside = min(set(range(len(good["trace"]))) - set(good["admissible_set"]))
    bad = {**good, "chosen_index": outside}
    problems, failed = workloads.check_output("fit", inp, bad)
    assert failed == 1 and any("not admissible" in p for p in problems)

    bad = {**good, "upsilon_min": good["upsilon_min"] - 1.0}
    assert workloads.check_output("fit", inp, bad)[1] == 1

    agg = {"converged": False, "certificate": 0.5,
           "alpha_star": [1 / 6] * 6, "iterations": 1000}
    problems, failed = workloads.check_output("aggregate", {"units": 1}, agg)
    assert failed == 1 and any("not certified" in p for p in problems)

    cert = {"pass": False, "lhs_esp": 0.0, "rhs_esp": 0.0, "lhs_var": 0.0,
            "rhs_var": 0.0}
    assert workloads.check_output("check_assumption", {"units": 1}, cert)[1] == 1

    bench = {"failures": 1, "per_replicate": [0.01] * 19}
    problems, failed = workloads.check_output("bench", {"units": 20}, bench)
    assert failed == 1 and problems


def test_reference_comparison_catches_a_perturbed_index():
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    ref = reference["ops"]["fit"]
    assert workloads.compare_reference("fit", dict(ref), ref) == []
    moved = {**ref, "chosen_index": ref["chosen_index"] + 1}
    assert workloads.compare_reference("fit", moved, ref) == [
        "fit.chosen_index differs from reference.json"]
    nudged = {**ref, "trace": [t + 1e-3 for t in ref["trace"]]}
    assert workloads.compare_reference("fit", nudged, ref)


def runner(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_prints_every_metric(trace):
    proc = runner("--workload", "certify", "--seconds", "1",
                  "--seed", "3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = ([n for n, _u in run.END_TO_END] if trace == "0"
             else [n for n, _u, _b in tracing.PER_LAYER])
    assert list(result["metrics"]) == names


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = runner("--workload", "estimate", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
