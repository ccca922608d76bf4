"""Smoke tests of the benchmark itself, at N = 3.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.load_program()

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 3


def _result(workload: str, trace: int, cwd: Path = run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--size", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == [m for m, _ in spans.PER_LAYER]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema(workload, trace):
    proc = _result(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _result("global-n8", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _cycle(name: str, span=None):
    w = workloads.WORKLOADS[name]
    c = workloads.Cycle(w.make_inputs(TINY, 5), span=span)
    w.cycle(c)
    return c


def test_corrupted_gain_counts_as_failed(monkeypatch):
    honest = workloads.hier_solve

    def corrupted(inp):
        plan, K = honest(inp)
        return plan, 1.05 * K

    monkeypatch.setattr(workloads, "hier_solve", corrupted)
    outcomes = {o.label: o for o in _cycle("hier-hom-n100").outcomes}
    assert outcomes["oracle_s"].ok
    assert outcomes["hier_solve_s"].error.startswith("check: relative K gap")


def test_exception_is_recorded_not_raised(monkeypatch):
    def out_of_memory(inp):
        raise MemoryError

    monkeypatch.setattr(workloads, "global_rl", out_of_memory)
    outcomes = {o.label: o for o in _cycle("global-n8").outcomes}
    assert outcomes["global_rl_s"].error == "MemoryError"
    assert outcomes["hier_solve_s"].ok


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_gains_are_bit_identical(name):
    untraced = _cycle(name)
    tracer = spans.Tracer()
    with tracer:
        traced = _cycle(name, span=tracer.span)
    assert all(o.ok for o in untraced.outcomes + traced.outcomes)
    gains = [(workloads.gain_of(a), workloads.gain_of(b))
             for a, b in zip(untraced.outcomes, traced.outcomes)]
    assert any(g is not None for g, _ in gains)
    for plain, timed in gains:
        assert (plain is None and timed is None) or np.array_equal(plain, timed)
    assert workloads.rl.simulate.__module__ == "hlqr.rl"
    assert not hasattr(workloads.rl.simulate, "__wrapped__")
    names = {s[0] for s in tracer.spans}
    assert "decomp.construct_T" in names and "lqr.assemble_gain" in names


def test_from_import_bindings_are_traced():
    tracer = spans.Tracer()
    with tracer:
        for module, attr in ((workloads.bench, "construct_T"), (workloads.rl, "project_problem"),
                             (workloads.rl, "assemble_gain")):
            assert hasattr(getattr(module, attr), "__wrapped__"), f"{module.__name__}.{attr}"
    assert not hasattr(workloads.bench.construct_T, "__wrapped__")


def test_self_time_excludes_children():
    spans_ = [
        ["op.x", 0.0, 10.0, -1],
        ["rl.collect_batch", 1.0, 7.0, 0],
        ["rl.simulate", 1.0, 3.0, 1],
        ["rl.simulate", 3.0, 6.0, 1],
        ["matkit.solve_are", 7.0, 9.0, 0],
        ["matkit.solve_are", 7.5, 8.0, 4],
    ]
    inclusive, self_s, calls = spans.layer_totals(spans_)
    assert inclusive["rl.collect_batch"] == 6.0 and self_s["rl.collect_batch"] == 1.0
    assert inclusive["rl.simulate"] == 5.0 and calls["rl.simulate"] == 2
    assert inclusive["matkit.solve_are"] == 2.0  # the nested call is not counted twice
    assert self_s["op.x"] == 2.0
