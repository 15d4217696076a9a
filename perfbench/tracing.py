"""Span tracer for the traced benchmark run.

The tracer wraps each layer's public functions from outside the package: it
replaces the function object at every ``rhoest`` module attribute that binds
it (and the methods on their classes), records one span per call, and puts
the originals back on exit.  Nothing in ``src/`` is changed.

A span is ``[name, start, end, parent, op_id, child_seconds]``; spans stay in
memory and are written out when the run ends.  A layer's self time is its
span's duration minus the time covered by its child spans.

Allocation tracing (tracemalloc) slows every allocation, so it is off unless
the tracer is made with ``measure_alloc=True``; the benchmark takes
``criterion.peak_alloc_mb`` from a pass of its own and every time from a
tracer without it.

Every name the tracer wraps is looked up when it is installed, and a missing
name raises :class:`TracerError`, so a refactor that renames or removes a
layer function stops the traced run instead of turning that layer's numbers
into silent zeros.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (span name, home module, attribute) of every wrapped module-level function.
FUNCTIONS = (
    ("cli.main", "rhoest.cli", "main"),
    ("criterion.rho_estimate", "rhoest.criterion", "rho_estimate"),
    ("criterion.upsilon_all", "rhoest.criterion", "upsilon_all"),
    ("psi.psi_pair", "rhoest.psi", "psi_pair"),
    ("psi.check_assumption", "rhoest.psi", "check_assumption"),
    ("quadrature.integrate_1d", "rhoest.quadrature", "integrate_1d"),
    ("densities.hellinger_sq", "rhoest.densities", "hellinger_sq"),
    ("aggregation.saddle_point", "rhoest.aggregation", "saddle_point"),
    ("aggregation.inner_argmax", "rhoest.aggregation", "inner_argmax"),
    ("aggregation.t_mix", "rhoest.aggregation", "t_mix"),
    ("selection.select", "rhoest.selection", "select"),
    ("models.build", "rhoest.models", "build_gaussian_location_grid"),
    ("models.build", "rhoest.models", "build_histogram_family"),
    ("models.build", "rhoest.models", "build_exp_family_grid"),
    ("harness.mc_risk", "rhoest.harness", "mc_risk"),
    ("harness.mle_counterexample", "rhoest.harness", "mle_counterexample"),
)

# (span name, module, class, method) of every wrapped method.
METHODS = (
    ("densities.sqrt_value_matrix", "rhoest.criterion", "DensityFamily",
     "sqrt_value_matrix"),
    ("densities.coord_values", "rhoest.densities", "ProductDensity",
     "coord_values"),
)

# QUADPACK is reached through this module attribute (scipy.integrate).
QUADPACK_MODULE = ("rhoest.quadrature", "integrate")

# (metric name, unit, better).  Counts and times are per traced op unless
# the name says otherwise; a ratio over a layer with no calls reads 0.
PER_LAYER = (
    ("criterion.upsilon_all.calls", "count", "lower"),
    ("criterion.upsilon_all.self_ms", "ms", "lower"),
    ("criterion.rho_estimate.self_ms", "ms", "lower"),
    ("criterion.tensor_mb_computed", "MB", "lower"),
    ("criterion.peak_alloc_mb", "MB", "lower"),
    ("psi.psi_pair.calls", "count", "lower"),
    ("psi.psi_pair.self_ms", "ms", "lower"),
    ("psi.psi_pair.elements", "count", "lower"),
    ("psi.psi_pair.ns_per_element", "ns", "lower"),
    ("psi.check_assumption.calls", "count", "lower"),
    ("psi.check_assumption.self_ms", "ms", "lower"),
    ("quadrature.integrate_1d.calls", "count", "lower"),
    ("quadrature.integrate_1d.self_ms", "ms", "lower"),
    ("quadrature.integrand_evals", "count", "lower"),
    ("quadrature.quadpack_calls", "count", "lower"),
    ("densities.hellinger_sq.calls", "count", "lower"),
    ("densities.hellinger_sq.self_ms", "ms", "lower"),
    ("densities.hellinger_sq.closed_form_ratio", "ratio", "higher"),
    ("densities.sqrt_value_matrix.calls", "count", "lower"),
    ("densities.sqrt_value_matrix.self_ms", "ms", "lower"),
    ("densities.coord_values.calls", "count", "lower"),
    ("densities.coord_values.self_ms", "ms", "lower"),
    ("aggregation.saddle_point.calls", "count", "lower"),
    ("aggregation.saddle_point.self_ms", "ms", "lower"),
    ("aggregation.inner_argmax.calls", "count", "lower"),
    ("aggregation.inner_argmax.self_ms", "ms", "lower"),
    ("aggregation.t_mix.self_ms", "ms", "lower"),
    ("aggregation.outer_iterations", "count", "lower"),
    ("aggregation.converged_ratio", "ratio", "higher"),
    ("selection.select.calls", "count", "lower"),
    ("selection.select.self_ms", "ms", "lower"),
    ("selection.union_size", "count", "lower"),
    ("models.build.calls", "count", "lower"),
    ("models.build.self_ms", "ms", "lower"),
    ("harness.mc_risk.self_ms", "ms", "lower"),
    ("harness.mle_counterexample.self_ms", "ms", "lower"),
    ("harness.replicates", "count", "higher"),
    ("harness.failed_replicates", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("numerics.runtime_warnings", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("machine.calibration_ms", "ms", "lower"),
)


class TracerError(RuntimeError):
    """A name the tracer wraps is missing, or a layer it must see was idle."""


def _resolve(module_name, *path):
    module = sys.modules.get(module_name)
    obj = module
    for attr in path:
        obj = getattr(obj, attr, None)
        if obj is None:
            raise TracerError(
                f"{module_name}.{'.'.join(path)} no longer exists; update "
                f"perfbench/tracing.py so this layer is still traced")
    return obj


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self, measure_alloc=False):
        self.measure_alloc = measure_alloc
        self.spans = []
        self.counters = Counter()
        self.maxima = defaultdict(float)
        self.op_id = -1
        self._stack = []
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every layer function at each rhoest binding; undo with uninstall."""
        if self._patches:
            raise TracerError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "rhoest" or name.startswith("rhoest."))]
        try:
            for span_name, module_name, attr in FUNCTIONS:
                original = _resolve(module_name, attr)
                wrapper = self._wrap(span_name, original)
                for module in modules:
                    for bound_name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, bound_name, wrapper)
            for span_name, module_name, cls_name, method in METHODS:
                cls = _resolve(module_name, cls_name)
                original = _resolve(module_name, cls_name, method)
                self._patch(cls, method, self._wrap(span_name, original))
            quadpack = _resolve(*QUADPACK_MODULE)
            _resolve(*QUADPACK_MODULE, "quad")
            self._patch(sys.modules[QUADPACK_MODULE[0]], QUADPACK_MODULE[1],
                        _CountingQuadpack(quadpack, self.counters))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        if tracemalloc.is_tracing():  # upsilon_all raised before its after-hook
            tracemalloc.stop()
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # -- spans ------------------------------------------------------------

    def _wrap(self, span_name, fn):
        before = _BEFORE.get(span_name)
        after = _AFTER.get(span_name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            parent = stack[-1] if stack else -1
            span = [span_name, 0.0, 0.0, parent, self.op_id, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - span[1]
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # -- results ----------------------------------------------------------

    def layer_stats(self):
        """{span name: (calls, self seconds)} over every recorded span."""
        stats = defaultdict(lambda: [0, 0.0])
        for name, start, end, _parent, _op, child in self.spans:
            entry = stats[name]
            entry[0] += 1
            entry[1] += (end - start) - child
        return {name: tuple(v) for name, v in stats.items()}

    def closed_form_ratio(self):
        """Share of hellinger_sq calls that made no integrate_1d call."""
        hellinger = [i for i, s in enumerate(self.spans)
                     if s[0] == "densities.hellinger_sq"]
        if not hellinger:
            return 0.0
        integrated = {s[3] for s in self.spans if s[0] == "quadrature.integrate_1d"}
        return sum(i not in integrated for i in hellinger) / len(hellinger)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op_id"],
                       "spans": [s[:5] for s in self.spans]}, fh)


class _CountingQuadpack:
    """Stands in for scipy.integrate inside rhoest.quadrature; counts quad()."""

    def __init__(self, module, counters):
        self._module = module
        self._counters = counters

    def __getattr__(self, name):
        return getattr(self._module, name)

    def quad(self, *args, **kwargs):
        self._counters["quadrature.quadpack_calls"] += 1
        return self._module.quad(*args, **kwargs)


# -- per-function hooks ------------------------------------------------------

def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _psi_pair_before(tracer, args, kwargs):
    u, v = _arg(args, kwargs, 1, "num_sqrt"), _arg(args, kwargs, 2, "den_sqrt")
    tracer.counters["psi.psi_pair.elements"] += int(
        np.prod(np.broadcast_shapes(np.shape(u), np.shape(v))))
    return args, kwargs


def _integrate_before(tracer, args, kwargs):
    fn = _arg(args, kwargs, 0, "fn")
    counters = tracer.counters

    def counted(*a, **k):
        counters["quadrature.integrand_evals"] += 1
        return fn(*a, **k)

    if args:
        return (counted, *args[1:]), kwargs
    return args, {**kwargs, "fn": counted}


def _upsilon_all_before(tracer, args, kwargs):
    fam = _arg(args, kwargs, 1, "fam")
    size = len(fam) ** 2 * fam.n * 8 / 1e6
    tracer.maxima["criterion.tensor_mb_computed"] = max(
        tracer.maxima["criterion.tensor_mb_computed"], size)
    if tracer.measure_alloc:
        tracemalloc.start()
        tracemalloc.reset_peak()
    return args, kwargs


def _upsilon_all_after(tracer, args, kwargs, result):
    if not tracer.measure_alloc:
        return
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracer.maxima["criterion.peak_alloc_mb"] = max(
        tracer.maxima["criterion.peak_alloc_mb"], peak / 1e6)


def _saddle_point_after(tracer, args, kwargs, result):
    tracer.counters["aggregation.outer_iterations"] += int(result["iterations"])
    tracer.counters["aggregation.converged"] += bool(result["converged"])


def _select_before(tracer, args, kwargs):
    coll = _arg(args, kwargs, 1, "coll")
    tracer.maxima["selection.union_size"] = max(
        tracer.maxima["selection.union_size"], len(coll.union_family))
    return args, kwargs


def _mc_risk_after(tracer, args, kwargs, result):
    tracer.counters["harness.replicates"] += _arg(args, kwargs, 0, "scenario").replications
    tracer.counters["harness.failed_replicates"] += result.failures


def _mle_after(tracer, args, kwargs, result):
    tracer.counters["harness.replicates"] += int(result["reps"])


_BEFORE = {
    "psi.psi_pair": _psi_pair_before,
    "quadrature.integrate_1d": _integrate_before,
    "criterion.upsilon_all": _upsilon_all_before,
    "selection.select": _select_before,
}
_AFTER = {
    "criterion.upsilon_all": _upsilon_all_after,
    "aggregation.saddle_point": _saddle_point_after,
    "harness.mc_risk": _mc_risk_after,
    "harness.mle_counterexample": _mle_after,
}


def per_layer_metrics(tracer, traced_ops, runtime_warnings, overhead_ratio,
                      calibration_ms, peak_alloc_mb):
    """Every PER_LAYER metric from one traced run, as {name: value};
    ``peak_alloc_mb`` comes from a separate ``measure_alloc`` pass."""
    stats = tracer.layer_stats()
    ops = max(traced_ops, 1)
    out = {}

    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    for name, _unit, _better in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls(layer) / ops
        elif kind == "self_ms":
            out[name] = stats.get(layer, (0, 0.0))[1] * 1e3 / ops
    c = tracer.counters
    elements = c["psi.psi_pair.elements"]
    out["psi.psi_pair.elements"] = elements / ops
    out["psi.psi_pair.ns_per_element"] = (
        stats.get("psi.psi_pair", (0, 0.0))[1] * 1e9 / elements if elements else 0.0)
    for name in ("quadrature.integrand_evals", "quadrature.quadpack_calls",
                 "harness.replicates", "harness.failed_replicates"):
        out[name] = c[name] / ops
    for name in ("criterion.tensor_mb_computed", "selection.union_size"):
        out[name] = float(tracer.maxima[name])
    out["criterion.peak_alloc_mb"] = float(peak_alloc_mb)
    out["densities.hellinger_sq.closed_form_ratio"] = tracer.closed_form_ratio()
    solves = calls("aggregation.saddle_point")
    out["aggregation.outer_iterations"] = (
        c["aggregation.outer_iterations"] / solves if solves else 0.0)
    out["aggregation.converged_ratio"] = (
        c["aggregation.converged"] / solves if solves else 0.0)
    out["numerics.runtime_warnings"] = float(runtime_warnings)
    out["trace.overhead_ratio"] = overhead_ratio
    out["machine.calibration_ms"] = calibration_ms
    missing = [name for name, _u, _b in PER_LAYER if name not in out]
    if missing:
        raise TracerError(f"per-layer metrics not computed: {missing}")
    return out


def require_active(tracer, span_names, counter_names=()):
    """Raise TracerError when a layer the workload must exercise saw no call."""
    stats = tracer.layer_stats()
    idle = [n for n in span_names if stats.get(n, (0, 0.0))[0] == 0]
    idle += [n for n in counter_names if tracer.counters[n] == 0]
    if idle:
        raise TracerError(f"traced run saw no work in {idle}; a wrapped name is "
                          f"no longer on the call path")
