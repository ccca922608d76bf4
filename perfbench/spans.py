"""Tracing for the benchmark's per-layer run.

The tracer replaces public hlqr functions with timing wrappers at every
module attribute that holds them, so calls between hlqr modules are caught
too: ``rl.simulate`` called from ``rl.collect_batch``, ``matkit.solve_are``
called from ``robust.hetero_lift``, and names bound by ``from ... import``
such as ``bench.construct_T``, ``rl.project_problem`` and
``rl.assemble_gain``. Spans (name, start, end, parent) stay in memory;
self time is derived from them afterwards. Nothing under ``src/hlqr``
changes: the wrappers are installed and removed by the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Layer (hlqr module) -> public functions that get a span.
TRACED = {
    "decomp": ("construct_T", "project_problem"),
    "rl": ("simulate", "empirical_abscissa", "collect_batch", "offpolicy_pi",
           "hierarchical_solve", "cluster_plants"),
    "lqr": ("assemble_gain",),
    "matkit": ("solve_are", "solve_lyapunov"),
    "robust": ("robust_report", "hetero_lift", "lmi_stability_check", "small_gain_check",
               "performance_bound", "hinf_norm", "h2_norm"),
}


def _count_construct_T(counts, bound, result):
    counts["decomp.clusters"] += result.r


def _count_simulate(counts, bound, result):
    counts["rl.sim_steps"] += int(round(bound.arguments["horizon"] / bound.arguments["dt"]))


def _count_offpolicy_pi(counts, bound, result):
    batch, cluster = bound.arguments["batch"], bound.arguments["cluster"]
    counts["rl.pi_iters"] += len(result[2])
    counts["rl.regression_rows"] += batch.window_count
    counts["rl.regression_unknowns"] += cluster.q


# Counts taken at the span boundary: (counters, bound arguments, result).
COUNTERS = {
    "decomp.construct_T": _count_construct_T,
    "rl.simulate": _count_simulate,
    "rl.offpolicy_pi": _count_offpolicy_pi,
}

# Per-layer metrics reported by a traced run: (metric, unit).
PER_LAYER = (
    ("decomp.construct_T.s", "s"),
    ("decomp.project_problem.s", "s"),
    ("decomp.clusters", "count"),
    ("rl.simulate.calls", "count"),
    ("rl.simulate.s", "s"),
    ("rl.sim_steps", "count"),
    ("rl.sim_steps_per_s", "1/s"),
    ("rl.empirical_abscissa.calls", "count"),
    ("rl.empirical_abscissa.s", "s"),
    ("rl.collect_batch.s", "s"),
    ("rl.collect_batch.self_s", "s"),
    ("rl.offpolicy_pi.s", "s"),
    ("rl.offpolicy_pi.self_s", "s"),
    ("rl.pi_iters", "count"),
    ("rl.regression_rows", "count"),
    ("rl.regression_unknowns", "count"),
    ("rl.hierarchical_solve.self_s", "s"),
    ("rl.cluster_plants.s", "s"),
    ("lqr.assemble_gain.s", "s"),
    ("matkit.solve_are.calls", "count"),
    ("matkit.solve_are.s", "s"),
    ("matkit.solve_lyapunov.calls", "count"),
    ("matkit.solve_lyapunov.s", "s"),
    ("robust.hetero_lift.s", "s"),
    ("robust.lmi_stability_check.s", "s"),
    ("robust.small_gain_check.s", "s"),
    ("robust.performance_bound.s", "s"),
    ("robust.hinf_norm.calls", "count"),
    ("robust.hinf_norm.s", "s"),
    ("robust.h2_norm.calls", "count"),
    ("robust.h2_norm.s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Collects spans while installed; use as a context manager. Wrapped
    functions record only inside a root span opened with ``span``, one per
    timed operation, so the benchmark's own checks leave no spans."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside a timed operation, e.g. in a check
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "hlqr" or k.startswith("hlqr."))]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"hlqr.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def write(self, path) -> None:
        """Write the spans as JSON: one [name, start, end, parent] per span."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_totals(spans) -> tuple[dict, dict, Counter]:
    """Inclusive seconds, self seconds and call counts per span name.

    Self time is a span's duration minus that of its direct children
    (calls are sequential, so children never overlap). Inclusive time
    skips spans nested inside a span of the same name.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive, self_s, calls = defaultdict(float), defaultdict(float), Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            inclusive[name] += end - start
    return inclusive, self_s, calls


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """The traced run's per-layer metrics, keyed as in ``PER_LAYER``."""
    inclusive, self_s, calls = layer_totals(tracer.spans)
    values = dict(tracer.counts)
    for metric, _ in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "s":
            values[metric] = inclusive.get(base, 0.0)
        elif kind == "self_s":
            values[metric] = self_s.get(base, 0.0)
        elif kind == "calls":
            values[metric] = calls.get(base, 0)
    sim_s = values["rl.simulate.s"]
    values["rl.sim_steps_per_s"] = values.get("rl.sim_steps", 0) / sim_s if sim_s else 0.0
    values["trace.overhead_s"] = overhead_s
    return {metric: {"value": values.get(metric, 0), "unit": unit}
            for metric, unit in PER_LAYER}
