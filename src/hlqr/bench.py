"""Benchmark harness: random connected graphs, the point-mass formation
example, and timed comparisons of the model-based, hierarchical
model-free, and global model-free solvers on the same problem draw."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import matkit, rl
from .decomp import (
    DecompositionPlan,
    ExcitationConfig,
    LqrSpec,
    construct_T,
    single_cluster_plan,
)
from .errors import (
    BudgetExceeded,
    ClusterFailure,
    DimensionMismatch,
    GenerationFailed,
    K0NotStabilizing,
    PreconditionFailed,
    SolverDiverged,
    SolverFailure,
)
from .lqr import AgentModel, evaluate_cost
from .robust import HeteroModel

SOLVERS = ("model-based", "hierarchical-rl", "global-rl")
CSV_COLUMNS = ("solver", "wall_ms", "J", "gain_gap_fro", "status")
# relative size of the model perturbation behind ``derive_initial_gain``
INITIAL_GAIN_PERTURBATION = 0.1


@dataclass(eq=False)
class BenchConfig:
    N: int
    seed: int
    hetero: float = 0.0
    solvers: tuple[str, ...] = ("model-based", "hierarchical-rl")
    timeout_s: float = 300.0
    out: str | None = None

    def __post_init__(self):
        if self.N < 2:
            raise PreconditionFailed("N must be >= 2")
        if self.seed < 0:
            raise PreconditionFailed(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 <= self.hetero <= 0.9:
            raise PreconditionFailed("hetero must be within [0, 0.9]")
        if not 0.0 < self.timeout_s < np.inf:
            raise PreconditionFailed(f"timeout_s must be finite and > 0, got {self.timeout_s}")
        unknown = set(self.solvers) - set(SOLVERS)
        if unknown:
            raise PreconditionFailed(f"unknown solvers {sorted(unknown)}")

    @property
    def mode(self) -> str:
        """Heterogeneous exactly when the agents are perturbed."""
        return "heterogeneous" if self.hetero > 0 else "homogeneous"


@dataclass(eq=False)
class SolverResult:
    solver: str
    status: str
    wall_ms: float
    J: float | None = None
    gain_gap_fro: float | None = None
    K: np.ndarray | None = None
    detail: dict = field(default_factory=dict)


@dataclass(eq=False)
class BenchReport:
    config: BenchConfig
    rows: list[SolverResult]
    plan: DecompositionPlan | None = None

    def to_json(self) -> dict:
        return {
            "config": {
                "N": self.config.N,
                "seed": self.config.seed,
                "hetero": self.config.hetero,
                "mode": self.config.mode,
                "solvers": list(self.config.solvers),
                "timeoutS": self.config.timeout_s,
            },
            "rows": [
                {
                    "solver": r.solver,
                    "wall_ms": r.wall_ms,
                    "J": r.J,
                    "gain_gap_fro": r.gain_gap_fro,
                    "status": r.status,
                    "detail": r.detail,
                }
                for r in self.rows
            ],
        }

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        r.solver,
                        f"{r.wall_ms:.3f}",
                        "" if r.J is None else f"{r.J:.17g}",
                        "" if r.gain_gap_fro is None else f"{r.gain_gap_fro:.17g}",
                        r.status,
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def gen_graph(N: int, seed: int) -> np.ndarray:
    """Laplacian of a connected Erdos-Renyi graph with edge probability
    min(1, 2 ln N / N), resampled until connected (at most 100 tries)."""
    if N < 2:
        raise PreconditionFailed("N must be >= 2")
    rng = np.random.default_rng(seed)
    p = min(1.0, 2.0 * np.log(N) / N)
    for _ in range(100):
        upper = np.triu(rng.random((N, N)) < p, k=1)
        adj = upper | upper.T
        if matkit.component_labels(adj)[0] == 1:
            weights = adj.astype(float)
            return np.diag(weights.sum(axis=1)) - weights
    raise GenerationFailed(f"no connected graph after 100 tries (N={N}, seed={seed})")


def _point_mass_agent(c: float, mass: float) -> tuple[np.ndarray, np.ndarray]:
    z = np.zeros((2, 2))
    eye = np.eye(2)
    A = np.block([[z, eye], [z, -(c / mass) * eye]])
    B = np.vstack([z, eye / mass])
    return A, B


def build_example(config: BenchConfig):
    """Problem draw for the formation benchmark: N double-integrator agents
    (n=4, m=2), weights G1 = 0.5 I + L over a random connected graph,
    G2 = I, Q0 = I, R0 = I, common random initial state in [0, 1]^4.

    Heterogeneous mode perturbs each agent's damping and mass by
    independent uniform draws from [-hetero, hetero].
    """
    rng = np.random.default_rng(config.seed)
    L = gen_graph(config.N, config.seed)
    n, m = 4, 2
    spec = LqrSpec(
        N=config.N,
        n=n,
        m=m,
        G1=0.5 * np.eye(config.N) + L,
        G2=np.eye(config.N),
        Q0=np.eye(n),
        R0=np.eye(m),
    )
    if config.hetero > 0:
        cs = 1.0 + rng.uniform(-config.hetero, config.hetero, config.N)
        ms = 1.0 + rng.uniform(-config.hetero, config.hetero, config.N)
    else:
        cs = np.ones(config.N)
        ms = np.ones(config.N)
    pairs = [_point_mass_agent(c, mass) for c, mass in zip(cs, ms)]
    model = HeteroModel([A for A, _ in pairs], [B for _, B in pairs])
    w = rng.uniform(0.0, 1.0, n)
    x0 = np.kron(np.ones(config.N), w)
    return spec, model, x0


def derive_initial_gain(A, B, seed: int, depth: float = 1.0) -> np.ndarray:
    """Stabilizing gain from a deliberately perturbed copy of the model; the
    perturbed copy is discarded afterwards so learning stays model-free.

    On each perturbed draw (Ap, Bp) the gain is the Riccati gain of
    (Ap + depth I, Bp) with Q = I and R = I. It puts every eigenvalue of
    Ap - Bp K left of -depth (the prescribed degree of stability, Anderson
    & Moore). Draws on which the Riccati solve fails are skipped.
    """
    A = matkit.require_square(A, "A")
    B = matkit.as_matrix(B, "B")
    n = A.shape[0]
    if B.shape[0] != n:
        raise DimensionMismatch(f"A is {A.shape}, B is {B.shape}")
    rng = np.random.default_rng(seed)
    scale_a = INITIAL_GAIN_PERTURBATION * max(float(np.linalg.norm(A)), 1e-2) / n
    scale_b = INITIAL_GAIN_PERTURBATION * max(float(np.linalg.norm(B)), 1e-3) / n
    for attempt in range(20):
        Ap = A + scale_a * rng.standard_normal(A.shape)
        Bp = B + scale_b * rng.standard_normal(B.shape)
        try:
            _, K = matkit.solve_are(Ap + depth * np.eye(n), Bp, np.eye(n),
                                    np.eye(B.shape[1]))
        except (PreconditionFailed, SolverDiverged):
            continue
        if matkit.spectral_abscissa(Ap - Bp @ K) < 0:
            return K
    raise GenerationFailed("no stabilizing Riccati gain on any perturbation draw")


def _run_model_based(spec, model, x0):
    t0 = time.perf_counter()
    P, K = matkit.solve_are(model.A, model.B, spec.Q, spec.R)
    wall = 1e3 * (time.perf_counter() - t0)
    J = evaluate_cost(model.A - model.B @ K, spec.Q + K.T @ spec.R @ K, x0)
    return K, SolverResult("model-based", "ok", wall, J=J, K=K)


def _run_model_free(config, spec, model, x0, solver):
    """The hierarchical row learns on ``construct_T``'s plan, the global row
    on ``single_cluster_plan`` (T = I, r = 1), both by ``hierarchical_solve``
    under one deadline per row, retried from a deeper K0 while the K0 probe
    fails. A solve stopped by the deadline or the memory check is a timeout."""
    plant = AgentModel(model.A_blocks[0], model.B_blocks[0]) if config.hetero == 0 else model
    A_nom, B_nom = _point_mass_agent(1.0, 1.0)
    t0 = time.perf_counter()
    deadline = time.monotonic() + config.timeout_s
    plan = (construct_T(spec.G1, spec.G2) if solver == "hierarchical-rl"
            else single_cluster_plan(spec.N))
    last_error: Exception | None = None
    for attempt in range(4):
        depth = 1.0 * 1.5**attempt
        k_agent = derive_initial_gain(
            A_nom, B_nom, seed=config.seed + 1000 * attempt, depth=depth
        )
        gains = [matkit.kron(np.eye(s), k_agent) for s in plan.cluster_sizes]
        rl_config = rl.HierarchicalConfig(
            excitation=ExcitationConfig(seed=config.seed),
            initial_gains=gains,
        )
        try:
            K, stats = rl.hierarchical_solve(spec, plan, plant, rl_config, deadline)
        except ClusterFailure as exc:
            if isinstance(exc.cause, K0NotStabilizing):
                last_error = exc
                continue
            if isinstance(exc.cause, BudgetExceeded):
                wall = 1e3 * (time.perf_counter() - t0)
                return plan, SolverResult(solver, "timeout", wall,
                                          detail={"reason": str(exc.cause)})
            raise
        wall = 1e3 * (time.perf_counter() - t0)
        J = evaluate_cost(model.A - model.B @ K, spec.Q + K.T @ spec.R @ K, x0)
        return plan, SolverResult(solver, "ok", wall, J=J, K=K,
                                  detail=rl.stats_to_json(stats, wall))
    raise last_error


def run_bench(config: BenchConfig) -> BenchReport:
    """Run the configured solvers on one seeded problem draw.

    Every solver is scored on the same plant, weights, and initial state;
    J is always evaluated on the true plant's closed loop. Identical
    configs reproduce identical gains and costs (timings vary). Results
    are written to ``config.out`` when set.
    """
    spec, model, x0 = build_example(config)
    rows: list[SolverResult] = []
    plan = None
    K_opt = None
    for solver in config.solvers:
        try:
            if solver == "model-based":
                K_opt, row = _run_model_based(spec, model, x0)
            elif solver == "hierarchical-rl":
                plan, row = _run_model_free(config, spec, model, x0, solver)
            else:
                _, row = _run_model_free(config, spec, model, x0, solver)
        except (PreconditionFailed, SolverFailure) as exc:
            row = SolverResult(solver, f"error:{type(exc).__name__}", 0.0,
                               detail={"message": str(exc)})
        rows.append(row)
    if K_opt is not None:
        for row in rows:
            if row.K is not None:
                row.gain_gap_fro = float(np.linalg.norm(K_opt - row.K))
    report = BenchReport(config, rows, plan)
    if config.out is not None:
        write_report(report, config.out)
    return report


def write_report(report: BenchReport, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bench.json").write_text(json.dumps(report.to_json(), indent=2))
    (out / "bench.csv").write_text(report.to_csv())
