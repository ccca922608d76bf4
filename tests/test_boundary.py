"""The model-free boundary: the learner in ``hlqr.rl`` reads plant matrices
in two places only. ``_closed_loop`` reads A/B to build a simulation step
map, and ``cluster_plants`` slices a model into cluster plants; nothing
else in the module, the decay probe included, may read them."""

import ast
from pathlib import Path

import hlqr.rl

ALLOWED = {"_closed_loop", "cluster_plants"}


def test_plant_matrices_read_only_by_map_builder_and_slicer():
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
