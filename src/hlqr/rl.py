"""Model-free solution layer.

The plant is only ever touched through trajectory simulation: data is
collected under a stabilizing behavior policy plus exploration noise,
and each cluster gain is learned by off-policy integral policy
iteration on the recorded windows. The learner never reads plant
matrices; cluster plants are exposed to it as simulation targets only.

The data settings are fixed: RK4 step dt = 1e-3, windows of 0.1 s,
L = 2q windows for q regression unknowns, and a decay probe of 1 s at a
step of 1e-2.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import matkit
from .decomp import (
    ClusterProblem,
    DecompositionPlan,
    ExcitationConfig,
    LqrSpec,
    kron_lift,
    project_problem,
    regression_bytes,
)
from .errors import (
    BudgetExceeded,
    ClusterFailure,
    DimensionMismatch,
    ExcitationDeficient,
    K0NotStabilizing,
    MaxIterExceeded,
    NonFinite,
    NotStabilizing,
    PreconditionFailed,
    RegressionSingular,
)
from .lqr import AgentModel, assemble_gain

STATE_BLOWUP_NORM = 1e12
REGRESSION_COND_LIMIT = 1e10
PI_TOL = 1e-8
PI_MAX_ITER = 50


class Trajectory(NamedTuple):
    t: np.ndarray
    x: np.ndarray
    u: np.ndarray


class ExcitationSignal:
    """Per-channel sum of seeded sinusoids, e(t) = a * sum_j sin(w_j t + p_j)."""

    def __init__(self, config: ExcitationConfig, input_dim: int):
        rng = np.random.default_rng(config.seed)
        lo, hi = config.frequency_range
        self.freqs = rng.uniform(lo, hi, size=(input_dim, config.component_count))
        self.phases = rng.uniform(0.0, 2.0 * np.pi, size=(input_dim, config.component_count))
        self.amplitude = float(config.amplitude)
        self.input_dim = input_dim

    def sample(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if self.amplitude == 0.0:
            return np.zeros((times.size, self.input_dim))
        phases = times[:, None, None] * self.freqs[None] + self.phases[None]
        return self.amplitude * np.sin(phases).sum(axis=2)


def _excitation_samples(excitation, input_dim: int, times: np.ndarray) -> np.ndarray:
    if excitation is None:
        return np.zeros((times.size, input_dim))
    if isinstance(excitation, ExcitationConfig):
        excitation = ExcitationSignal(excitation, input_dim)
    if isinstance(excitation, ExcitationSignal):
        if excitation.input_dim != input_dim:
            raise DimensionMismatch("excitation channel count does not match input dim")
        return excitation.sample(times)
    # arbitrary callable t -> R^m
    return np.vstack([np.asarray(excitation(t), dtype=float).ravel() for t in times])


def _as_dynamics(plant, state_dim: int, input_dim: int):
    """Normalize a plant to either (A, B) matrices or a derivative callable."""
    if hasattr(plant, "A") and hasattr(plant, "B"):
        A = matkit.require_square(plant.A, "plant.A")
        B = matkit.as_matrix(plant.B, "plant.B")
        if A.shape[0] != state_dim or B.shape != (state_dim, input_dim):
            raise DimensionMismatch("plant dimensions do not match state/policy")
        return A, B
    if callable(plant):
        return plant
    raise PreconditionFailed("plant must expose A/B or be a derivative callable f(x, u)")


def simulate(plant, policy, excitation, x0, dt: float, horizon: float,
             t0: float = 0.0) -> Trajectory:
    """Fixed-step classic 4th-order Runge-Kutta rollout of the closed loop
    u = -K x + e(t).

    ``plant`` is either an object with A/B matrices or a black-box
    derivative callable f(x, u). The exploration signal is sampled on the
    half-step grid so each integrator stage sees e at its own time.
    Deterministic for a given excitation seed. Raises ``NonFinite`` if the
    state turns NaN or inf or its norm exceeds 1e12.
    """
    if dt <= 0:
        raise PreconditionFailed("dt must be positive")
    if horizon < dt:
        raise PreconditionFailed("horizon must be at least one step")
    K = matkit.as_matrix(policy, "policy")
    x = np.asarray(x0, dtype=float).ravel().copy()
    dim, m = x.size, K.shape[0]
    if K.shape[1] != dim:
        raise DimensionMismatch(f"policy is {K.shape}, state dim is {dim}")
    steps = int(round(horizon / dt))
    stage_times = t0 + 0.5 * dt * np.arange(2 * steps + 1)
    E = _excitation_samples(excitation, m, stage_times)

    dyn = _as_dynamics(plant, dim, m)
    if isinstance(dyn, tuple):
        A, B = dyn
        Acl = A - B @ K

        def g(x, e):
            return Acl @ x + B @ e
    else:
        def g(x, e):
            return np.asarray(dyn(x, e - K @ x), dtype=float).ravel()

    X = np.empty((steps + 1, dim))
    X[0] = x
    half = 0.5 * dt
    # a stage state that turns inf makes NaN in g; the step check raises
    with np.errstate(invalid="ignore"):
        for k in range(steps):
            e0, e1, e2 = E[2 * k], E[2 * k + 1], E[2 * k + 2]
            k1 = g(x, e0)
            k2 = g(x + half * k1, e1)
            k3 = g(x + half * k2, e1)
            k4 = g(x + dt * k3, e2)
            x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            # false for NaN, for inf and for a norm above the blow-up bound
            if not x @ x <= STATE_BLOWUP_NORM**2:
                raise NonFinite(f"state blew up at step {k + 1}")
            X[k + 1] = x
    U = E[::2] - X @ K.T
    t = t0 + dt * np.arange(steps + 1)
    return Trajectory(t, X, U)


def empirical_abscissa(plant, gain, dim: int, dt: float = 1e-2,
                       horizon: float = 1.0) -> float:
    """Closed-loop spectral abscissa estimated from black-box rollouts.

    Integrates each unit initial condition under u = -K x and
    eigen-analyzes the resulting one-horizon transition matrix; never
    reads plant matrices directly.
    """
    cols = []
    for j in range(dim):
        x0 = np.zeros(dim)
        x0[j] = 1.0
        try:
            traj = simulate(plant, gain, None, x0, dt, horizon)
        except NonFinite:
            return np.inf
        cols.append(traj.x[-1])
    M = np.column_stack(cols)
    rho = float(np.max(np.abs(np.linalg.eigvals(M))))
    if rho <= 0.0:
        return -np.inf
    return float(np.log(rho) / horizon)


@dataclass(eq=False)
class TrajectoryBatch:
    """Per-window endpoint states and trapezoidal input/state moment
    integrals, plus the excitation-rank flag for the regression."""

    x_start: np.ndarray  # (L, n)
    x_end: np.ndarray    # (L, n)
    ixx: np.ndarray      # (L, n, n), integral of outer(x, x) over each window
    ixu: np.ndarray      # (L, n, m), integral of outer(x, u) over each window
    rank: int
    rank_ok: bool

    @property
    def window_count(self) -> int:
        return self.x_start.shape[0]


def _check_budget(start: float, done: int, total: int, deadline: float | None) -> None:
    if deadline is None:
        return
    now = time.monotonic()
    if now > deadline:
        raise BudgetExceeded(f"budget passed after {done}/{total} windows")
    if done >= 10:
        eta = start + (now - start) * total / done
        if eta > deadline:
            raise BudgetExceeded(
                f"projected completion {eta - start:.1f}s exceeds budget "
                f"({done}/{total} windows collected)"
            )


def _check_memory(cluster: ClusterProblem) -> None:
    predicted = regression_bytes(cluster.state_dim, cluster.input_dim,
                                 cluster.window_count)
    available = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if predicted > available:
        raise BudgetExceeded(
            f"predicted {predicted} bytes for {cluster.window_count} windows "
            f"exceeds physical memory of {available} bytes"
        )


def _reduced_rows(batch_ixx: np.ndarray, batch_ixu: np.ndarray) -> np.ndarray:
    """Data matrix whose rank decides excitation sufficiency: one row per
    window holding the distinct quadratic monomial integrals and the
    state-input cross integrals."""
    L, n, _ = batch_ixx.shape
    iu, ju = np.triu_indices(n)
    quad = batch_ixx[:, iu, ju]
    cross = batch_ixu.reshape(L, -1)
    return np.hstack([quad, cross])


def collect_batch(plant, cluster: ClusterProblem, x0, dt: float = 1e-3,
                  deadline: float | None = None) -> TrajectoryBatch:
    """Record L windows of closed-loop data under the cluster's initial gain
    plus exploration noise, with trapezoidal window integrals at the
    simulation step.

    Before anything is allocated, the bytes that collection and the
    regression will certainly need (``decomp.regression_bytes``) are
    compared with the host's physical memory; a problem that cannot fit
    raises ``BudgetExceeded``, with or without a deadline.

    Raises ``ExcitationDeficient`` when the regression data matrix has
    numerical rank below the unknown count, and ``BudgetExceeded`` when the
    memory budget is exceeded or a deadline is given and passed (or
    provably unreachable).
    """
    if cluster.initial_gain is None:
        raise PreconditionFailed("cluster has no initial gain")
    if cluster.window_count is None:
        raise PreconditionFailed("cluster has no window count")
    K0 = matkit.as_matrix(cluster.initial_gain, "initial gain")
    delta, L = cluster.sample_interval, cluster.window_count
    steps = delta / dt
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps) or round(steps) < 1:
        raise PreconditionFailed("integration step must divide the window length")
    _check_memory(cluster)
    exc = (
        ExcitationSignal(cluster.excitation, cluster.input_dim)
        if cluster.excitation is not None
        else None
    )
    x = np.asarray(x0, dtype=float).ravel().copy()
    n, m = cluster.state_dim, cluster.input_dim
    x_start = np.empty((L, n))
    x_end = np.empty((L, n))
    ixx = np.empty((L, n, n))
    ixu = np.empty((L, n, m))
    start = time.monotonic()
    for w in range(L):
        _check_budget(start, w, L, deadline)
        traj = simulate(plant, K0, exc, x, dt, delta, t0=w * delta)
        weights = np.full(traj.x.shape[0], dt)
        weights[0] = weights[-1] = 0.5 * dt
        Xw = traj.x * weights[:, None]
        x_start[w] = traj.x[0]
        x_end[w] = traj.x[-1]
        ixx[w] = Xw.T @ traj.x
        ixu[w] = Xw.T @ traj.u
        x = traj.x[-1]
    rank = matkit.numerical_rank(_reduced_rows(ixx, ixu))
    q = cluster.q
    if rank < q:
        raise ExcitationDeficient(
            f"regression rank {rank} below unknown count {q}; "
            "increase windows, amplitude, or component count"
        )
    return TrajectoryBatch(x_start, x_end, ixx, ixu, rank, rank == q)


def _phi(X: np.ndarray) -> np.ndarray:
    """Distinct quadratic monomials x_i x_j (i <= j) for each row of X."""
    iu, ju = np.triu_indices(X.shape[1])
    return X[:, iu] * X[:, ju]


def _unpack_p(sol: np.ndarray, n: int) -> np.ndarray:
    """Recover symmetric P from the monomial coefficients (off-diagonal
    coefficients carry the factor 2)."""
    P = np.zeros((n, n))
    iu, ju = np.triu_indices(n)
    P[iu, ju] = sol
    return 0.5 * (P + P.T)


def offpolicy_pi(batch: TrajectoryBatch, cluster: ClusterProblem, *, plant=None,
                 deadline: float | None = None):
    """Off-policy integral policy iteration on a recorded batch.

    With current gain K, the unknowns (P, K+) are the least-squares
    solution over all windows of

        phi(x_end)'p - phi(x_start)'p
            = -int x'(Q + K'RK)x dtau + 2 int (u + Kx)' R K+ x dtau,

    which is the integral form of the Kleinman step, so the iteration
    inherits its convergence to the Riccati solution from a stabilizing
    start. Stops when ||P_k - P_(k-1)||_F <= ``PI_TOL``, or when the
    difference stagnates at the round-off floor 1e-12 * ||P_k||_F; more
    than ``PI_MAX_ITER`` iterations raise ``MaxIterExceeded``.

    Returns (kappa, P, history) where history lists the (P, K) iterates.
    When ``plant`` is given the final gain is checked by an empirical
    closed-loop decay probe, otherwise positive definiteness of P stands
    in; failure raises ``NotStabilizing``.
    """
    if not batch.rank_ok:
        raise PreconditionFailed("batch failed the excitation rank condition")
    n, m = cluster.state_dim, cluster.input_dim
    Q, R = cluster.Qblock, cluster.Rblock
    if cluster.initial_gain is None:
        raise PreconditionFailed("cluster has no initial gain")
    K = matkit.as_matrix(cluster.initial_gain, "initial gain")
    phi_diff = _phi(batch.x_end) - _phi(batch.x_start)
    L = batch.window_count
    ixu_t = batch.ixu.transpose(0, 2, 1)
    history: list[tuple[np.ndarray, np.ndarray]] = []
    P_prev = None
    residual = np.inf
    for it in range(PI_MAX_ITER):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(f"budget passed during iteration {it}")
        cross = R @ (ixu_t + K @ batch.ixx)          # (L, m, n)
        theta = np.hstack([phi_diff, -2.0 * cross.reshape(L, -1)])
        rhs = -np.einsum("lij,ij->l", batch.ixx, matkit.symmetrize(Q + K.T @ R @ K))
        sol, _, rank, sv = np.linalg.lstsq(theta, rhs, rcond=None)
        if rank < theta.shape[1] or sv[-1] <= 0 or sv[0] / sv[-1] > REGRESSION_COND_LIMIT:
            raise RegressionSingular(
                f"regression condition {sv[0] / max(sv[-1], np.finfo(float).tiny):.3e}"
            )
        d1 = n * (n + 1) // 2
        P = _unpack_p(sol[:d1], n)
        K = sol[d1:].reshape(m, n)
        history.append((P, K))
        if P_prev is not None:
            residual = float(np.linalg.norm(P - P_prev))
            if residual <= max(PI_TOL, 1e-12 * float(np.linalg.norm(P))):
                break
        P_prev = P
    else:
        raise MaxIterExceeded(f"no convergence within {PI_MAX_ITER} iterations")

    if plant is not None:
        if empirical_abscissa(plant, K, n) >= 0:
            raise NotStabilizing("learned gain failed the empirical decay probe")
    elif float(np.min(np.linalg.eigvalsh(matkit.symmetrize(P)))) <= 0:
        raise NotStabilizing("learned value matrix is not positive definite")
    return K, P, history


@dataclass(eq=False)
class HierarchicalConfig:
    """Exploration signal and per-cluster initial gains of the
    hierarchical model-free solve."""

    excitation: ExcitationConfig = field(default_factory=ExcitationConfig)
    initial_gains: Sequence[np.ndarray] | None = None


@dataclass
class ClusterStats:
    index: int
    size: int
    iters: int
    residual: float
    wall_ms: float


def _embedded_cluster(f_global, plan: DecompositionPlan, spec: LqrSpec, i: int):
    """Black-box cluster dynamics from a black-box global plant: embed the
    cluster state/input into transformed coordinates with zeros elsewhere,
    evaluate the plant, and slice the cluster rows back out."""
    n, m = spec.n, spec.m
    off = plan.offsets()[i]
    size = plan.cluster_sizes[i]
    Tn = kron_lift(plan.T, n)
    Tm = kron_lift(plan.T, m)
    rows = slice(n * off, n * (off + size))
    in_rows = slice(m * off, m * (off + size))

    def dyn(xi, v):
        x_full = np.zeros(Tn.shape[0])
        x_full[rows] = xi
        u_full = np.zeros(Tm.shape[0])
        u_full[in_rows] = v
        dx = np.asarray(f_global(Tn.T @ x_full, Tm.T @ u_full), dtype=float).ravel()
        return (Tn @ dx)[rows]

    return dyn


def cluster_plants(plant, plan: DecompositionPlan, spec: LqrSpec):
    """Per-cluster simulation targets for a homogeneous agent model, a
    global (possibly heterogeneous) model, or a black-box callable.

    For a global model the cluster plant is the corresponding diagonal
    block of the transformed dynamics (exact for homogeneous plants, the
    block-diagonal approximation otherwise).
    """
    n, m, N = spec.n, spec.m, spec.N
    if callable(plant) and not hasattr(plant, "A"):
        return [_embedded_cluster(plant, plan, spec, i) for i in range(plan.r)]
    A = matkit.require_square(plant.A, "plant.A")
    B = matkit.as_matrix(plant.B, "plant.B")
    if A.shape == (n, n) and B.shape == (n, m):
        return [
            AgentModel(matkit.kron(np.eye(s), A), matkit.kron(np.eye(s), B))
            for s in plan.cluster_sizes
        ]
    if A.shape == (n * N, n * N) and B.shape == (n * N, m * N):
        Tn = kron_lift(plan.T, n)
        Tm = kron_lift(plan.T, m)
        Axi = Tn @ A @ Tn.T
        Bxi = Tn @ B @ Tm.T
        out = []
        for off, s in zip(plan.offsets(), plan.cluster_sizes):
            rs = slice(n * off, n * (off + s))
            cs = slice(m * off, m * (off + s))
            out.append(AgentModel(Axi[rs, rs], Bxi[rs, cs]))
        return out
    raise DimensionMismatch("plant dimensions match neither one agent nor the global system")


def hierarchical_solve(spec: LqrSpec, plan: DecompositionPlan, plant_access,
                       config: HierarchicalConfig | None = None):
    """Run the full hierarchical model-free pipeline.

    Projects the problem onto the plan's clusters, then per cluster, in
    index order: verifies the supplied initial gain with an empirical decay
    probe, collects a trajectory batch, and runs off-policy policy
    iteration. The global gain is reassembled through the plan's
    transformation. The first cluster error is re-raised as
    ``ClusterFailure`` tagged with the cluster index, keeping stats of the
    clusters that did finish.

    Returns (K, stats) with per-cluster iteration/residual/wall-time stats.
    """
    config = config or HierarchicalConfig()
    problems = project_problem(spec, plan, excitation=config.excitation)
    if config.initial_gains is None:
        raise PreconditionFailed("per-cluster initial gains are required")
    if len(config.initial_gains) != plan.r:
        raise DimensionMismatch(
            f"expected {plan.r} initial gains, got {len(config.initial_gains)}"
        )
    for problem, gain in zip(problems, config.initial_gains):
        problem.initial_gain = matkit.as_matrix(gain, "initial gain")
    plants = cluster_plants(plant_access, plan, spec)
    gains, stats = [], []
    for i, (problem, plant) in enumerate(zip(problems, plants)):
        t0 = time.perf_counter()
        nc = problem.state_dim
        try:
            if empirical_abscissa(plant, problem.initial_gain, nc) >= 0:
                raise K0NotStabilizing(f"initial gain for cluster {i} is not stabilizing")
            batch = collect_batch(plant, problem, np.full(nc, 1.0 / np.sqrt(nc)))
            kappa, _, history = offpolicy_pi(batch, problem, plant=plant)
        except Exception as exc:  # noqa: BLE001 - tagged and re-raised
            raise ClusterFailure(i, exc, stats) from exc
        residual = (
            float(np.linalg.norm(history[-1][0] - history[-2][0]))
            if len(history) > 1
            else 0.0
        )
        wall_ms = 1e3 * (time.perf_counter() - t0)
        gains.append(kappa)
        stats.append(ClusterStats(i, plan.cluster_sizes[i], len(history), residual, wall_ms))
    K = assemble_gain(plan, gains, spec.n, spec.m)
    return K, stats


def result_to_json(K: np.ndarray, stats: Sequence[ClusterStats],
                   total_wall_ms: float) -> dict:
    return {
        "K": matkit.matrix_to_json(K),
        "perCluster": [
            {
                "size": s.size,
                "iters": s.iters,
                "residual": s.residual,
                "wallMs": s.wall_ms,
            }
            for s in stats
        ],
        "totalWallMs": total_wall_ms,
    }
