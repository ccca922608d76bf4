"""Command-line interface.

Subcommands: ``decompose``, ``solve``, ``robust``, ``bench``. Exit codes:
0 success, 2 precondition failure, 3 solver divergence.

File formats (all matrices are headerless CSV or ``{"rows","cols","data"}``
JSON, chosen by extension):

* spec file (JSON): ``{"N","n","m","G1","G2","Q0","R0","A","B"}`` where
  A/B (n x n, n x m) give the nominal agent model: the hidden simulation plant in
  model-free mode and the cluster plants in model-based mode.
* model file (JSON): ``{"agents":[{"A":..,"B":..},...],
  "weights":{"G1":..,"G2":..,"Q0":..,"R0":..}}``.
* gain file (JSON): ``{"K": matrix}``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bench, decomp, matkit, rl, robust
from .errors import ClusterFailure, PreconditionFailed, SolverFailure
from .lqr import AgentModel, hierarchical_model_based


def _read(load, path):
    """``load(path)``, with a missing, unreadable or malformed input file
    raised as ``PreconditionFailed`` naming the file."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise PreconditionFailed(f"cannot read input file {path}: {exc!r}") from exc


def _load_gain_file(path):
    return matkit.matrix_from_json(json.loads(Path(path).read_text())["K"])


def _spec(N, n, m, weights):
    """The ``LqrSpec`` of the given dimensions and G1/G2/Q0/R0 matrices."""
    return decomp.LqrSpec(N, n, m, *(matkit.matrix_from_json(weights[key])
                                     for key in ("G1", "G2", "Q0", "R0")))


def _load_spec_file(path):
    obj = json.loads(Path(path).read_text())
    spec = _spec(int(obj["N"]), int(obj["n"]), int(obj["m"]), obj)
    plant = None
    if "A" in obj and "B" in obj:
        plant = AgentModel(matkit.matrix_from_json(obj["A"]),
                           matkit.matrix_from_json(obj["B"]))
    return spec, plant


def _load_model_file(path):
    obj = json.loads(Path(path).read_text())
    model = robust.HeteroModel(
        [matkit.matrix_from_json(a["A"]) for a in obj["agents"]],
        [matkit.matrix_from_json(a["B"]) for a in obj["agents"]],
    )
    return model, _spec(model.N, model.n, model.m, obj["weights"])


def cmd_decompose(args) -> int:
    g1 = _read(matkit.load_matrix, args.g1)
    g2 = _read(matkit.load_matrix, args.g2)
    plan = decomp.construct_T(g1, g2, tol=args.tol)
    decomp.save_plan(plan, args.out)
    check = decomp.verify_plan(plan, g1, g2)
    print(
        f"r={plan.r} decomposable={plan.decomposable} "
        f"orth={check.orthogonality:.2e} off-block=({check.off_block_g1:.2e}, "
        f"{check.off_block_g2:.2e})"
    )
    return 0


def cmd_solve(args) -> int:
    spec, plant = _read(_load_spec_file, args.spec)
    plan = _read(decomp.load_plan, args.plan)
    if plant is None:
        raise PreconditionFailed("spec file must carry the agent model A/B")
    t0 = time.perf_counter()
    if args.mode == "model-based":
        K, _ = hierarchical_model_based(spec, plan, plant)
        stats = []
    else:
        excitation = decomp.ExcitationConfig(seed=args.seed)
        k_agent = bench.derive_initial_gain(plant.A, plant.B, seed=args.seed)
        config = rl.HierarchicalConfig(
            excitation=excitation,
            initial_gains=[matkit.kron(np.eye(s), k_agent) for s in plan.cluster_sizes],
        )
        K, stats = rl.hierarchical_solve(spec, plan, plant, config)
    wall_ms = 1e3 * (time.perf_counter() - t0)
    Path(args.out).write_text(json.dumps(rl.result_to_json(K, stats, wall_ms)))
    print(f"solved mode={args.mode} r={plan.r} wall_ms={wall_ms:.1f}")
    return 0


def cmd_robust(args) -> int:
    model, spec = _read(_load_model_file, args.model)
    plan = _read(decomp.load_plan, args.plan)
    K = _read(_load_gain_file, args.gain)
    x0 = _read(matkit.load_vector, args.x0)
    report = robust.robust_report(model, plan, spec, x0, gain=K)
    robust.save_report(report, args.out)
    print(json.dumps(report.verdicts))
    return 0


def cmd_bench(args) -> int:
    config = bench.BenchConfig(
        N=args.n,
        seed=args.seed,
        hetero=args.hetero,
        solvers=tuple(args.solvers.split(",")),
        timeout_s=args.timeout_s,
        out=args.out,
    )
    report = bench.run_bench(config)
    print(report.to_csv(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hlqr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="construct the decomposing transformation")
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("solve", help="solve per-cluster problems and assemble the gain")
    p.add_argument("--spec", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--mode", choices=("model-based", "model-free"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("robust", help="certify a gain on a heterogeneous plant")
    p.add_argument("--plan", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--gain", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_robust)

    p = sub.add_parser("bench", help="run the solver comparison benchmark")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--hetero", type=float, default=0.0)
    p.add_argument("--timeout-s", dest="timeout_s", type=float, default=300.0)
    p.add_argument("--solvers", default="model-based,hierarchical-rl")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def exit_code_for(exc: Exception) -> int:
    if isinstance(exc, ClusterFailure):  # classed by its cluster's failure
        exc = exc.cause
    if isinstance(exc, PreconditionFailed):
        return 2
    if isinstance(exc, SolverFailure):
        return 3
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PreconditionFailed, SolverFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
