"""Boundaries of the package.

The model-free boundary: the learner in ``hlqr.rl`` reads plant matrices
in one place only. ``_closed_loop`` reads A/B to build a simulation step
map; nothing else in the module, the decay probe included, may read them,
and it never reads a heterogeneous model's agent blocks ``A_blocks`` and
``B_blocks``. Cluster plants are sliced from a model by
``hlqr.lqr.cluster_plants``, which ``hlqr.rl`` imports and binds as
``rl.cluster_plants``; it builds them from the agent blocks, so the solve
path never reads a ``HeteroModel``'s dense global ``A`` and ``B``, which
are built on first read and so stay unbuilt through a solve.

One model-free pipeline: inside ``src/hlqr`` only ``hlqr.rl`` calls
``collect_batch`` and ``_lockstep_pi``, and only ``hlqr.decomp`` constructs
a ``ClusterProblem`` (in ``project_problem``). Every other model-free solve,
the benchmark's global baseline included, goes through
``rl.hierarchical_solve``.

One lift operator: T acts on the agent axis through ``decomp.lift`` alone,
so no module of ``src/hlqr`` forms the dense T (x) I_d (``kron_lift``, the
reference tests compare ``lift`` against), and ``lqr.assemble_gain`` forms
no block-diagonal diag(k_1..k_r).

The public API: every name in ``hlqr.__all__`` resolves, and every function
the benchmark's tracer wraps by name (``TRACED`` in ``perfbench/spans.py``)
still exists in its module. Every public top-level function or class of
``src/hlqr`` has a caller: a reference in the package outside
``__init__``, one in the benchmark's ``perfbench/workloads.py`` or a
place in ``TRACED``, unless it is one of the references that tests
compare against (``TEST_REFERENCES``)."""

import ast
import importlib
from pathlib import Path

import numpy as np

import hlqr
import hlqr.lqr
import hlqr.rl
from hlqr.decomp import LqrSpec, construct_T
from hlqr.robust import HeteroModel

ALLOWED = {"_closed_loop"}
# pipeline stage -> the modules of src/hlqr that may call it
PIPELINE_OWNERS = {"collect_batch": {"rl"}, "_lockstep_pi": {"rl"}, "ClusterProblem": {"decomp"}}
PACKAGE = Path(hlqr.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# public names only tests call: the references they compare the package against
TEST_REFERENCES = {"kron_lift", "kleinman_pi"}


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


def agent_block_reads(path) -> list:
    """Line numbers of the reads of ``A_blocks``/``B_blocks`` in a module, by
    attribute or by name."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(Path(path).read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in ("A_blocks", "B_blocks"))
        or (isinstance(node, ast.Constant) and node.value in ("A_blocks", "B_blocks"))
    ]


def test_learner_never_reads_agent_blocks():
    assert agent_block_reads(hlqr.rl.__file__) == []
    assert agent_block_reads(hlqr.lqr.__file__)  # the walk finds cluster_plants' reads


def hetero_solve_inputs():
    """Three damped oscillators whose plan has a cluster of size 2."""
    N = 3
    G1 = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
    spec = LqrSpec(N, 2, 1, G1, np.diag([1.0, 2.0, 3.0]), np.eye(2), np.eye(1))
    plan = construct_T(spec.G1, spec.G2)
    assert max(plan.cluster_sizes) >= 2
    model = HeteroModel(
        [np.array([[0.0, 1.0], [-k, -c]]) for k, c in ((1.0, 0.5), (1.2, 0.4), (0.9, 0.6))],
        [np.array([[0.0], [1.0]])] * N)
    config = hlqr.rl.HierarchicalConfig(
        initial_gains=[np.kron(np.eye(s), [[1.0, 1.0]]) for s in plan.cluster_sizes])
    return spec, plan, model, config


def test_solve_path_never_reads_dense_model():
    # the same solve with the dense global A and B taken away
    spec, plan, model, config = hetero_solve_inputs()
    K, _ = hlqr.rl.hierarchical_solve(spec, plan, model, config)
    model.A = model.B = None
    K_blind, _ = hlqr.rl.hierarchical_solve(spec, plan, model, config)
    assert np.array_equal(K_blind, K)


def test_solves_leave_dense_model_unbuilt():
    # A and B are cached properties: building them stores them on the model
    spec, plan, model, config = hetero_solve_inputs()
    hlqr.rl.hierarchical_solve(spec, plan, model, config)
    hlqr.lqr.hierarchical_model_based(spec, plan, model)
    assert "A" not in vars(model) and "B" not in vars(model)
    assert model.A.shape == (6, 6) and "A" in vars(model)


def package_calls(names) -> set:
    """(module, name) for each call of one of ``names`` in src/hlqr."""
    return {
        (path.stem, name)
        for path in Path(hlqr.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "attr", getattr(node.func, "id", None))) in names
    }


def test_one_model_free_pipeline():
    calls = package_calls(PIPELINE_OWNERS)
    assert {(module, name) for module, name in calls
            if module not in PIPELINE_OWNERS[name]} == set()
    # the walk finds the owners' own calls
    assert calls == {(module, name) for name, owners in PIPELINE_OWNERS.items()
                     for module in owners}


def test_no_dense_lift_in_package():
    calls = package_calls({"kron_lift", "lift"})
    assert {module for module, name in calls if name == "kron_lift"} == set()
    assert ("lqr", "block_diag") not in package_calls({"block_diag"})
    # the walk finds the lift calls of the consumers
    assert {("lqr", "lift"), ("robust", "lift")} <= calls


def traced_names() -> dict:
    """``TRACED`` of ``perfbench/spans.py``: module -> names the tracer wraps."""
    return next(
        ast.literal_eval(node.value)
        for node in ast.parse((PERFBENCH / "spans.py").read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )


def test_public_and_traced_names_exist():
    assert [name for name in hlqr.__all__ if not hasattr(hlqr, name)] == []
    # the tracer's rl.cluster_plants span wraps the one function lqr defines
    assert hlqr.rl.cluster_plants is hlqr.lqr.cluster_plants
    traced = traced_names()
    missing = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hlqr.{layer}"), name, None))
    ]
    assert traced and missing == []


def read_names(tree) -> set:
    """Every name a syntax tree reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_definition_has_a_caller():
    defined, used = set(), set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.add(own)
            # a definition's reads of its own name (recursion) do not count
            used |= read_names(top) - {own}
    used |= read_names(ast.parse((PERFBENCH / "workloads.py").read_text()))
    used |= {name for names in traced_names().values() for name in names}
    assert sorted(defined - used - TEST_REFERENCES) == []
    # the test references have no other caller, or they would not be listed
    assert TEST_REFERENCES <= defined - used
