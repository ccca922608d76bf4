"""Boundaries of the package.

The model-free boundary: the learner in ``hlqr.rl`` reads plant matrices
in one place only. ``_closed_loop`` reads A/B to build a simulation step
map; nothing else in the module, the decay probe included, may read them.
Cluster plants are sliced from a model by ``hlqr.lqr.cluster_plants``,
which ``hlqr.rl`` imports and binds as ``rl.cluster_plants``.

The public API: every name in ``hlqr.__all__`` resolves, and every function
the benchmark's tracer wraps by name (``TRACED`` in ``perfbench/spans.py``)
still exists in its module."""

import ast
import importlib
from pathlib import Path

import hlqr
import hlqr.lqr
import hlqr.rl

ALLOWED = {"_closed_loop"}


def test_plant_matrices_read_only_by_map_builder():
    tree = ast.parse(Path(hlqr.rl.__file__).read_text())
    reads = [
        (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None, node.lineno)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in ("A", "B")
        and isinstance(node.ctx, ast.Load)
    ]
    assert [(owner, line) for owner, line in reads if owner not in ALLOWED] == []
    assert {owner for owner, _ in reads} == ALLOWED  # the walk finds the allowed reads


def test_public_and_traced_names_exist():
    assert [name for name in hlqr.__all__ if not hasattr(hlqr, name)] == []
    # the tracer's rl.cluster_plants span wraps the one function lqr defines
    assert hlqr.rl.cluster_plants is hlqr.lqr.cluster_plants
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    missing = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hlqr.{layer}"), name, None))
    ]
    assert traced and missing == []
