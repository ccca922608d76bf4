import json

import numpy as np
import pytest

from hlqr import cli, matkit
from hlqr.bench import build_example, BenchConfig
from hlqr.errors import (
    ClusterFailure,
    ExcitationDeficient,
    K0NotStabilizing,
    NonFinite,
    PreconditionFailed,
    RegressionSingular,
    SolverDiverged,
)
from conftest import run_fresh_python, save_matrix_csv, save_matrix_json


@pytest.fixture
def toy_files(tmp_path):
    """Spec/weights/plant files for a small solvable problem."""
    config = BenchConfig(N=2, seed=3)
    spec, model, x0 = build_example(config)
    spec_obj = {
        "N": spec.N,
        "n": spec.n,
        "m": spec.m,
        "G1": matkit.matrix_to_json(spec.G1),
        "G2": matkit.matrix_to_json(spec.G2),
        "Q0": matkit.matrix_to_json(spec.Q0),
        "R0": matkit.matrix_to_json(spec.R0),
        "A": matkit.matrix_to_json(model.A_blocks[0]),
        "B": matkit.matrix_to_json(model.B_blocks[0]),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec_obj))
    save_matrix_csv(spec.G1, tmp_path / "g1.csv")
    save_matrix_json(spec.G2, tmp_path / "g2.json")
    model_obj = {
        "agents": [
            {"A": matkit.matrix_to_json(A), "B": matkit.matrix_to_json(B)}
            for A, B in zip(model.A_blocks, model.B_blocks)
        ],
        "weights": {
            "G1": matkit.matrix_to_json(spec.G1),
            "G2": matkit.matrix_to_json(spec.G2),
            "Q0": matkit.matrix_to_json(spec.Q0),
            "R0": matkit.matrix_to_json(spec.R0),
        },
    }
    (tmp_path / "model.json").write_text(json.dumps(model_obj))
    save_matrix_csv(x0.reshape(-1, 1), tmp_path / "x0.csv")
    return tmp_path, spec, model, x0


def test_decompose_solve_roundtrip(toy_files):
    tmp, spec, model, x0 = toy_files
    rc = cli.main([
        "decompose", "--g1", str(tmp / "g1.csv"), "--g2", str(tmp / "g2.json"),
        "--out", str(tmp / "plan.json"),
    ])
    assert rc == 0
    plan_obj = json.loads((tmp / "plan.json").read_text())
    assert plan_obj["decomposable"] is True and plan_obj["r"] == 2

    rc = cli.main([
        "solve", "--spec", str(tmp / "spec.json"), "--plan", str(tmp / "plan.json"),
        "--mode", "model-based", "--out", str(tmp / "gain_mb.json"),
    ])
    assert rc == 0
    rc = cli.main([
        "solve", "--spec", str(tmp / "spec.json"), "--plan", str(tmp / "plan.json"),
        "--mode", "model-free", "--out", str(tmp / "gain_mf.json"),
    ])
    assert rc == 0
    K_mb = matkit.matrix_from_json(json.loads((tmp / "gain_mb.json").read_text())["K"])
    obj_mf = json.loads((tmp / "gain_mf.json").read_text())
    K_mf = matkit.matrix_from_json(obj_mf["K"])
    assert obj_mf["perCluster"]
    assert np.linalg.norm(K_mf - K_mb) / np.linalg.norm(K_mb) <= 1e-2


def test_decompose_splits_repeated_noncommuting_pair(tmp_path, capsys):
    # G1 repeats an eigenvalue and does not commute with G2, yet both leave
    # span{e2} and span{e1, e3} invariant
    save_matrix_csv(np.diag([1.0, 1.0, 2.0]), tmp_path / "g1.csv")
    save_matrix_csv([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 4.0]],
                    tmp_path / "g2.csv")
    capsys.readouterr()
    assert cli.main(["decompose", "--g1", str(tmp_path / "g1.csv"), "--g2",
                     str(tmp_path / "g2.csv"), "--out", str(tmp_path / "plan.json")]) == 0
    assert capsys.readouterr().out.startswith("r=2 decomposable=True ")


def _drop_agent_model(spec_obj):
    del spec_obj["A"], spec_obj["B"]


def _unverifiable_g1(spec_obj):
    # the plan diagonalizes the fixture's G1; this G1 is not block-diagonal in it
    spec_obj["G1"] = matkit.matrix_to_json(np.diag([1.0, 2.0]))


def _dense_global_model(spec_obj):
    # spec A/B are one agent's; the block-diagonal global pair is refused
    N = spec_obj["N"]
    for key in ("A", "B"):
        spec_obj[key] = matkit.matrix_to_json(
            np.kron(np.eye(N), matkit.matrix_from_json(spec_obj[key])))


@pytest.mark.parametrize("edit", [_drop_agent_model, _unverifiable_g1, _dense_global_model])
@pytest.mark.parametrize("mode", ["model-based", "model-free"])
def test_solve_rejects_spec_with_exit_2(toy_files, mode, edit):
    tmp = toy_files[0]
    rc = cli.main([
        "decompose", "--g1", str(tmp / "g1.csv"), "--g2", str(tmp / "g2.json"),
        "--out", str(tmp / "plan.json"),
    ])
    assert rc == 0
    spec_obj = json.loads((tmp / "spec.json").read_text())
    edit(spec_obj)
    (tmp / "spec.json").write_text(json.dumps(spec_obj))
    rc = cli.main([
        "solve", "--spec", str(tmp / "spec.json"), "--plan", str(tmp / "plan.json"),
        "--mode", mode, "--out", str(tmp / "gain.json"),
    ])
    assert rc == 2
    assert not (tmp / "gain.json").exists()


@pytest.mark.parametrize("case", ["malformed-csv", "missing-file", "spec-without-n"])
def test_unreadable_input_file_exits_2(toy_files, capsys, case):
    tmp = toy_files[0]
    decompose = ["decompose", "--g1", str(tmp / "g1.csv"), "--g2", str(tmp / "g2.json"),
                 "--out", str(tmp / "plan.json")]
    argv, bad = decompose, tmp / "g1.csv"
    if case == "malformed-csv":
        bad.write_text("x\n")
    elif case == "missing-file":
        bad.unlink()
    else:
        assert cli.main(decompose) == 0
        bad = tmp / "spec.json"
        spec_obj = json.loads(bad.read_text())
        del spec_obj["n"]
        bad.write_text(json.dumps(spec_obj))
        argv = ["solve", "--spec", str(bad), "--plan", str(tmp / "plan.json"),
                "--mode", "model-free", "--out", str(tmp / "gain.json")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert str(bad) in capsys.readouterr().err


def test_robust_command(toy_files):
    tmp, spec, model, x0 = toy_files
    cli.main([
        "decompose", "--g1", str(tmp / "g1.csv"), "--g2", str(tmp / "g2.json"),
        "--out", str(tmp / "plan.json"),
    ])
    cli.main([
        "solve", "--spec", str(tmp / "spec.json"), "--plan", str(tmp / "plan.json"),
        "--mode", "model-based", "--out", str(tmp / "gain.json"),
    ])
    rc = cli.main([
        "robust", "--plan", str(tmp / "plan.json"), "--model", str(tmp / "model.json"),
        "--gain", str(tmp / "gain.json"), "--x0", str(tmp / "x0.csv"),
        "--out", str(tmp / "report.json"),
    ])
    assert rc == 0
    report = json.loads((tmp / "report.json").read_text())
    assert report["verdicts"]["lmi"] is True
    assert report["verdicts"]["deployed_stable"] is True


def test_bench_command(tmp_path):
    rc = cli.main([
        "bench", "--n", "2", "--seed", "3", "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    assert (tmp_path / "out" / "bench.csv").exists()
    assert (tmp_path / "out" / "bench.json").exists()


def test_precondition_exit_code(tmp_path):
    # G2 not positive definite trips the decomposition precondition
    save_matrix_csv(np.eye(2), tmp_path / "g1.csv")
    save_matrix_csv(np.diag([1.0, 0.0]), tmp_path / "g2.csv")
    rc = cli.main([
        "decompose", "--g1", str(tmp_path / "g1.csv"),
        "--g2", str(tmp_path / "g2.csv"), "--out", str(tmp_path / "p.json"),
    ])
    assert rc == 2


def _edit_plan(tmp, **fields):
    """Overwrite ``fields`` of the plan file ``tmp / "plan.json"``."""
    obj = json.loads((tmp / "plan.json").read_text())
    obj.update(fields)
    (tmp / "plan.json").write_text(json.dumps(obj))


def _bad_input_argv(tmp, case):
    """argv of one command whose input ``case`` is malformed, after running
    the commands that make its other inputs."""
    def f(name):
        return str(tmp / name)

    decompose = ["decompose", "--g1", f("g1.csv"), "--g2", f("g2.json"), "--out", f("plan.json")]
    solve = ["solve", "--spec", f("spec.json"), "--plan", f("plan.json"), "--out", f("gain.json")]
    if case == "empty-g1-g2":
        save_matrix_json(np.zeros((0, 0)), tmp / "empty.json")
        return ["decompose", "--g1", f("empty.json"), "--g2", f("empty.json"),
                "--out", f("plan.json")]
    if case == "zero-agent-spec":
        spec_obj = json.loads((tmp / "spec.json").read_text())
        empty = matkit.matrix_to_json(np.zeros((0, 0)))
        spec_obj.update(N=0, G1=empty, G2=empty)
        (tmp / "spec.json").write_text(json.dumps(spec_obj))
        return solve + ["--mode", "model-based"]
    if case == "bench-negative-seed":
        return ["bench", "--n", "2", "--seed", "-1", "--out", f("bench")]
    if case.startswith("bench-timeout-"):
        return ["bench", "--n", "2", "--seed", "3", "--timeout-s", case[len("bench-timeout-"):],
                "--solvers", "global-rl", "--out", f("bench")]
    if case == "empty-csv":
        (tmp / "g1.csv").write_text("")
        return decompose
    if case.startswith("tol-"):
        return decompose + ["--tol", case[len("tol-"):]]
    assert cli.main(decompose) == 0
    if case == "solve-negative-seed":
        return solve + ["--mode", "model-free", "--seed", "-1"]
    if case == "plan-sizes-sum":
        _edit_plan(tmp, clusterSizes=[1])
        return solve + ["--mode", "model-based"]
    assert cli.main(solve + ["--mode", "model-based"]) == 0
    if case == "plan-negative-size":
        _edit_plan(tmp, clusterSizes=[-1, 3])
    elif case == "gain-shape":
        K = matkit.matrix_from_json(json.loads((tmp / "gain.json").read_text())["K"])
        (tmp / "gain.json").write_text(json.dumps({"K": matkit.matrix_to_json(K[:-1])}))
    else:
        x0 = matkit.load_vector(tmp / "x0.csv")
        save_matrix_csv(x0[:-1].reshape(-1, 1), tmp / "x0.csv")
    return ["robust", "--plan", f("plan.json"), "--model", f("model.json"),
            "--gain", f("gain.json"), "--x0", f("x0.csv"), "--out", f("report.json")]


@pytest.mark.parametrize("case, named", [
    ("empty-g1-g2", "G1"),
    ("zero-agent-spec", "G1"),
    ("bench-negative-seed", "seed"),
    ("bench-timeout-nan", "timeout_s"),
    ("bench-timeout--1", "timeout_s"),
    ("empty-csv", "g1.csv"),
    ("solve-negative-seed", "seed"),
    ("gain-shape", "gain"),
    ("x0-length", "x0"),
    ("tol-nan", "tol"),
    ("tol--1", "tol"),
    ("plan-negative-size", "cluster sizes"),
    ("plan-sizes-sum", "cluster sizes"),
])
@pytest.mark.filterwarnings("error")
def test_bad_input_exits_2_naming_it(toy_files, capsys, case, named):
    argv = _bad_input_argv(toy_files[0], case)
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_plan_file_with_stored_blocks_solves(toy_files):
    # older plan files also hold the cluster weights as "phi"/"psi" blocks;
    # the weights come from T and the spec, so even wrong blocks change nothing
    tmp = toy_files[0]
    solve = ["solve", "--spec", str(tmp / "spec.json"), "--plan", str(tmp / "plan.json"),
             "--mode", "model-based", "--out"]
    assert cli.main(["decompose", "--g1", str(tmp / "g1.csv"), "--g2", str(tmp / "g2.json"),
                     "--out", str(tmp / "plan.json")]) == 0
    assert cli.main(solve + [str(tmp / "gain.json")]) == 0
    sizes = json.loads((tmp / "plan.json").read_text())["clusterSizes"]
    zeros = [matkit.matrix_to_json(np.zeros((s, s))) for s in sizes]
    _edit_plan(tmp, phi=zeros, psi=zeros)
    assert cli.main(solve + [str(tmp / "gain_old.json")]) == 0
    K, K_old = (matkit.matrix_from_json(json.loads((tmp / name).read_text())["K"])
                for name in ("gain.json", "gain_old.json"))
    assert np.array_equal(K, K_old)


def _solve_agent_pair(tmp, A, B, mode):
    """Exit code of ``hlqr solve --mode mode`` for two agents (A, B) with
    G1 = [[2, -1], [-1, 2]], G2 = I, Q0 = I and R0 = I, after decomposing."""
    G1 = np.array([[2.0, -1.0], [-1.0, 2.0]])
    n, m = np.shape(B)
    spec_obj = {"N": 2, "n": n, "m": m, "G1": matkit.matrix_to_json(G1),
                "G2": matkit.matrix_to_json(np.eye(2)), "Q0": matkit.matrix_to_json(np.eye(n)),
                "R0": matkit.matrix_to_json(np.eye(m)), "A": matkit.matrix_to_json(A),
                "B": matkit.matrix_to_json(B)}
    (tmp / "spec.json").write_text(json.dumps(spec_obj))
    save_matrix_csv(G1, tmp / "g1.csv")
    save_matrix_csv(np.eye(2), tmp / "g2.csv")
    assert cli.main(["decompose", "--g1", str(tmp / "g1.csv"), "--g2",
                     str(tmp / "g2.csv"), "--out", str(tmp / "plan.json")]) == 0
    return cli.main(["solve", "--spec", str(tmp / "spec.json"), "--plan",
                     str(tmp / "plan.json"), "--mode", mode, "--out", str(tmp / "gain.json")])


@pytest.mark.filterwarnings("error")
def test_overflowing_plant_exits_3(tmp_path, capsys):
    # ||A||_F^2 overflows the Riccati residual bound's scale: a solver
    # failure before the doubling starts, with no numpy overflow warning
    assert _solve_agent_pair(tmp_path, [[1e200]], [[1.0]], "model-based") == 3
    assert "overflows" in capsys.readouterr().err


@pytest.mark.parametrize("mode, named", [("model-based", "not controllable"),
                                         ("model-free", "K0NotStabilizing")])
def test_uncontrollable_plant_exits_2(tmp_path, capsys, mode, named):
    # the agent's unstable mode x2' = x2 takes no input: a precondition
    # failure in both modes, inside a ClusterFailure in the model-free one
    assert _solve_agent_pair(tmp_path, np.diag([-1.0, 1.0]), [[1.0], [0.0]], mode) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "gain.json").exists()


def test_exit_code_mapping():
    assert cli.exit_code_for(PreconditionFailed("x")) == 2
    assert cli.exit_code_for(ExcitationDeficient("x")) == 2
    assert cli.exit_code_for(SolverDiverged("x")) == 3
    assert cli.exit_code_for(RegressionSingular("x")) == 3
    assert cli.exit_code_for(ValueError("x")) == 1
    assert cli.exit_code_for(ClusterFailure(0, K0NotStabilizing("x"))) == 2
    assert cli.exit_code_for(ClusterFailure(1, NonFinite("x"))) == 3


def test_cli_import_skips_scipy():
    # hlqr's decompose/project/learn/assemble path runs on numpy alone and
    # scipy.linalg is imported only inside the kernels that need it; a
    # fresh interpreter shows whether importing the CLI, deriving an
    # initial gain, a two-agent hierarchical solve, a benchmark draw, a
    # heterogeneous model or gain assembly pulls in any scipy module, and
    # that the first Lyapunov solve (evaluate_cost) then loads scipy.linalg
    code = "\n".join([
        "import sys, numpy as np, hlqr.cli",
        "from hlqr.bench import BenchConfig, build_example, derive_initial_gain",
        "from hlqr.decomp import LqrSpec, construct_T",
        "from hlqr.lqr import AgentModel, assemble_gain, evaluate_cost",
        "from hlqr.rl import HierarchicalConfig, hierarchical_solve",
        "from hlqr.robust import HeteroModel",
        "A, B = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])",
        "k = derive_initial_gain(A, B, seed=0)",
        "spec = LqrSpec(2, 2, 1, np.array([[2.0, -1.0], [-1.0, 2.0]]), np.eye(2),",
        "               np.eye(2), np.eye(1))",
        "plan = construct_T(spec.G1, spec.G2)",
        "hierarchical_solve(spec, plan, AgentModel(A, B),",
        "                   HierarchicalConfig(initial_gains=[k] * plan.r))",
        "build_example(BenchConfig(N=6, seed=0, hetero=0.05))",
        "HeteroModel([A, A + 0.1 * np.eye(2)], [B, B])",
        "K = assemble_gain(plan, [k] * plan.r, spec.n, spec.m)",
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        "big_A, big_B = np.kron(np.eye(2), A), np.kron(np.eye(2), B)",
        "evaluate_cost(big_A - big_B @ K, np.eye(4), np.ones(4))",
        "print('scipy.linalg' in sys.modules)",
    ])
    assert run_fresh_python(code).split("\n")[:2] == ["[]", "True"]
