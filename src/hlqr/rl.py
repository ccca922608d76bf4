"""Model-free solution layer.

The plant is only ever touched through trajectory simulation: data is
collected under a stabilizing behavior policy plus exploration noise,
and each cluster gain is learned by off-policy integral policy
iteration on the recorded windows. The learner never reads plant
matrices; cluster plants are exposed to it as simulation targets only.

The recorded data do not depend on a cluster's weights, so learning costs
one K0 probe and one batch per distinct (cluster plant, K0) pair, not one
per cluster: with identical agents and equal initial gains, every cluster
of a given size learns from the same batch. Each cluster still runs its
own regression and its own final decay probe.

The clusters are decoupled, so those of equal dimensions (a shape class)
are rolled out together: ``simulate``, ``empirical_abscissa`` and
``collect_batch`` take a leading cluster axis, and the hierarchical solve
makes one stacked K0 probe and one stacked collection per class, each
cluster under its own excitation seed. The time of a stacked phase is
split evenly over the clusters in it (their ``ClusterStats.wall_ms``).

The data settings are fixed: RK4 step dt = 1e-3, windows of 0.1 s,
L = 2q windows for q regression unknowns, and a decay probe of 1 s at a
step of 1e-2. Every plant advances by its RK4 step map, which is read off
the one RK4 body once per rollout: from A/B matrices, or by evaluating a
black-box callable on unit states and inputs. A callable plant must
therefore be linear and time-invariant, as the decay probe and the
integral policy-iteration regression already assume.
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
    rows = [np.asarray(excitation(t), dtype=float).ravel() for t in times]
    if any(row.size != input_dim for row in rows):
        raise DimensionMismatch(f"excitation must return {input_dim} values per time")
    return np.vstack(rows)


def _closed_loop(plants, K: np.ndarray, dim: int, m: int):
    """Closed-loop derivative g(x, e) = f(x, e - K x) of r plants, each
    with its gain from the (r, m, dim) stack ``K``, for an (r, k, dim)
    stack of states and inputs that broadcast to (r, k, m).

    A/B plants are stacked into (A - BK)' and B'; a derivative callable
    f(x, u) is applied to one state at a time."""
    has_ab = [hasattr(p, "A") and hasattr(p, "B") for p in plants]
    if all(has_ab):
        try:
            A = np.array([p.A for p in plants], dtype=float)
            B = np.array([p.B for p in plants], dtype=float)
        except ValueError:
            A = B = None
        r = len(plants)
        if A is None or A.shape != (r, dim, dim) or B.shape != (r, dim, m):
            raise DimensionMismatch("plant dimensions do not match state/policy")
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise PreconditionFailed("plant.A or plant.B has non-finite entries")
        Acl_t, B_t = (A - B @ K).swapaxes(1, 2), B.swapaxes(1, 2)

        def g(x, e):
            return x @ Acl_t + e @ B_t
        return g
    if any(has_ab):
        raise PreconditionFailed("a cluster stack cannot mix A/B and callable plants")
    if not all(callable(p) for p in plants):
        raise PreconditionFailed("plant must expose A/B or be a derivative callable f(x, u)")
    K_t = K.swapaxes(1, 2)

    def g(x, e):
        u = e - x @ K_t
        dx = np.stack([
            np.stack([np.asarray(f(xi, ui), dtype=float).ravel()
                      for xi, ui in zip(xc, uc)])
            for f, xc, uc in zip(plants, x, u)
        ])
        if dx.shape != x.shape:
            raise DimensionMismatch(
                f"plant derivative has {dx.shape[-1]} entries, state dim is {dim}")
        return dx
    return g


def _is_stack(plant) -> bool:
    """Whether ``plant`` is a list of cluster plants (a cluster axis)."""
    return isinstance(plant, (list, tuple))


def simulate(plant, policy, excitation, x0, dt: float, horizon: float,
             t0: float = 0.0) -> Trajectory:
    """Fixed-step classic 4th-order Runge-Kutta rollout of the closed loop
    u = -K x + e(t).

    ``plant`` is either an object with A/B matrices or a black-box linear
    derivative callable f(x, u), which is applied to one state at a time.
    ``x0`` is one initial state, or a (k, dim) stack of them rolled out
    together under the same excitation; ``x`` and ``u`` of the trajectory
    then carry the row axis second, shaped (steps + 1, k, dim) and
    (steps + 1, k, m). The exploration signal is sampled on the half-step
    grid so each integrator stage sees e at its own time. Deterministic
    for a given excitation seed. Raises ``NonFinite`` if any state turns
    NaN or inf or its norm exceeds 1e12, and ``DimensionMismatch`` if the
    excitation or a callable plant returns the wrong number of values.

    A list of r plants of equal dimensions adds a leading cluster axis:
    ``policy`` then holds r gains, ``excitation`` is None or a list of r
    excitations, and ``x0`` is an (r, dim) or (r, k, dim) stack; the
    trajectory carries the cluster axis second, before any row axis. The
    clusters advance together and never mix, and the ``NonFinite`` of a
    blow-up names the clusters whose states blew up in its ``clusters``.
    A single plant is the r = 1 case.

    One step with half-step excitation is the linear map
    x+ = Phi x + G0 e0 + G1 e1 + G2 e2. Phi and the G's are read off the
    RK4 body once per call by applying it to unit states and inputs, the
    forcing of all steps is formed in three products before the loop, and
    each step is one (stacked) matrix product. A callable plant is thus
    evaluated 4 (dim + 3m) times per cluster and call, whatever the
    horizon, and must be linear and time-invariant.
    """
    if dt <= 0:
        raise PreconditionFailed("dt must be positive")
    if horizon < dt:
        raise PreconditionFailed("horizon must be at least one step")
    clustered = _is_stack(plant)
    plants = list(plant) if clustered else [plant]
    r = len(plants)
    if clustered:
        K = np.asarray(policy, dtype=float)
        excitations = [None] * r if excitation is None else list(excitation)
        if K.ndim != 3 or K.shape[0] != r or len(excitations) != r:
            raise DimensionMismatch("need one gain and one excitation per cluster plant")
        if not np.all(np.isfinite(K)):
            raise PreconditionFailed("policy has non-finite entries")
    else:
        K = matkit.as_matrix(policy, "policy")[None]
        excitations = [excitation]
    x = np.asarray(x0, dtype=float)
    if not clustered:
        x = x[None]
    rows = x.ndim == 3
    if x.ndim == 2:
        x = x[:, None]
    if x.ndim != 3 or x.shape[0] != r:
        raise DimensionMismatch(f"initial states of shape {np.shape(x0)} for {r} plant(s)")
    dim, m = x.shape[2], K.shape[1]
    if K.shape[2] != dim:
        raise DimensionMismatch(f"policy is {K.shape[1:]}, state dim is {dim}")
    steps = int(round(horizon / dt))
    stage_times = t0 + 0.5 * dt * np.arange(2 * steps + 1)
    # (2 steps + 1, r, 1, m): broadcasts over the rows of each cluster
    unforced = all(e is None for e in excitations)
    E = (np.zeros((stage_times.size, r, 1, m)) if unforced
         else np.stack([_excitation_samples(e, m, stage_times) for e in excitations],
                       axis=1)[:, :, None])
    K_t = K.swapaxes(1, 2)
    g = _closed_loop(plants, K, dim, m)
    half = 0.5 * dt

    def rk4(x, e0, e1, e2):
        k1 = g(x, e0)
        k2 = g(x + half * k1, e1)
        k3 = g(x + half * k2, e1)
        k4 = g(x + dt * k3, e2)
        return x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

    X = np.empty((steps + 1,) + x.shape)
    X[0] = x
    bound = STATE_BLOWUP_NORM**2
    # a map or state that turns inf makes NaN; the step check raises
    with np.errstate(invalid="ignore", over="ignore"):
        # one step is linear in the state and the three stage inputs,
        # x+ = x Phi' + e0 G0' + e1 G1' + e2 G2'; each map is the RK4 body
        # applied to unit rows, one (r, ., dim) stack per cluster
        no_input = np.zeros((1, m))
        Phi_t = rk4(np.broadcast_to(np.eye(dim), (r, dim, dim)),
                    no_input, no_input, no_input)
        F = None
        if not unforced:
            eye, zero, no_state = np.eye(m), np.zeros((m, m)), np.zeros((r, m, dim))
            Er = E[:, :, 0].transpose(1, 0, 2)             # (r, 2 steps + 1, m)
            F = (Er[:, 0:-1:2] @ rk4(no_state, eye, zero, zero)
                 + Er[:, 1::2] @ rk4(no_state, zero, eye, zero)
                 + Er[:, 2::2] @ rk4(no_state, zero, zero, eye))
            F = np.ascontiguousarray(F.transpose(1, 0, 2)[:, :, None])
        # each step writes the next state straight into its trajectory row
        for k in range(steps):
            x = np.matmul(x, Phi_t, out=X[k + 1])
            if F is not None:
                x += F[k]
            # false for NaN, for inf and for a norm above the blow-up bound;
            # the whole stack's squared norm bounds each row's, so rows are
            # checked one by one only when it fails
            if not np.vdot(x, x) <= bound:
                norms = np.einsum("rki,rki->rk", x, x)
                if not np.max(norms) <= bound:
                    blown = np.flatnonzero(~np.all(norms <= bound, axis=1))
                    raise NonFinite(f"state blew up at step {k + 1}", clusters=blown)
    if not rows:
        X = X[:, :, 0]
    feedback = X.swapaxes(0, 1) @ (K_t[:, None] if rows else K_t)
    U = (E[::2] if rows else E[::2, :, 0]) - feedback.swapaxes(0, 1)
    if not clustered:
        X, U = X[:, 0], U[:, 0]
    t = t0 + dt * np.arange(steps + 1)
    return Trajectory(t, X, U)


def _drop_blowups(rollout, count: int):
    """Run ``rollout(live)`` on the cluster indices ``live``. When its
    stacked rollout blows up, the clusters its ``NonFinite`` names fail
    with that error and the others run again without them (the rare path;
    normally the first run is the only one).

    Returns (live, result, failed): the clusters of the run that
    completed, its result (None when no cluster is left) and the
    ``NonFinite`` of each failed cluster by index.
    """
    live, failed = list(range(count)), {}
    while live:
        try:
            return live, rollout(live), failed
        except NonFinite as exc:
            dead = {live[j] for j in exc.clusters}
            if not dead:
                raise
            failed.update(dict.fromkeys(dead, exc))
            live = [i for i in live if i not in dead]
    return live, None, failed


def empirical_abscissa(plant, gain, dim: int, dt: float = 1e-2,
                       horizon: float = 1.0) -> float | np.ndarray:
    """Closed-loop spectral abscissa estimated from black-box rollouts.

    Integrates all unit initial conditions under u = -K x in one stacked
    rollout and eigen-analyzes the resulting one-horizon transition
    matrix; never reads plant matrices directly. A rollout that blows up
    gives ``inf``.

    A list of r plants with an (r, m, dim) stack of gains is probed in one
    rollout over the cluster axis and gives an array of r abscissas; a
    cluster that blows up gets ``inf`` and the others are probed again
    without it.
    """
    clustered = _is_stack(plant)
    plants = list(plant) if clustered else [plant]
    gains = (np.asarray(gain, dtype=float) if clustered
             else matkit.as_matrix(gain, "policy")[None])
    r = len(plants)
    eyes = np.broadcast_to(np.eye(dim), (r, dim, dim))

    def rollout(live):
        rows = live if len(live) < r else slice(None)
        traj = simulate([plants[i] for i in live], gains[rows], None, eyes[rows],
                        dt, horizon)
        return traj.x[-1].swapaxes(1, 2)

    live, M, _ = _drop_blowups(rollout, r)
    out = np.full(r, np.inf)
    if live:
        # log(0) = -inf: a transition map that annihilates every state
        with np.errstate(divide="ignore"):
            out[live] = np.log(np.abs(np.linalg.eigvals(M)).max(axis=1)) / horizon
    return out if clustered else float(out[0])


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


def _check_memory(clusters: Sequence[ClusterProblem]) -> None:
    predicted = sum(regression_bytes(c.state_dim, c.input_dim, c.window_count)
                    for c in clusters)
    available = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if predicted > available:
        raise BudgetExceeded(
            f"predicted {predicted} bytes for {len(clusters)} x "
            f"{clusters[0].window_count} windows exceeds physical memory of "
            f"{available} bytes"
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
                  deadline: float | None = None) -> TrajectoryBatch | list:
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

    A list of r problems with equal dimensions and window settings, with
    ``plant`` the list of their plants and ``x0`` an (r, n) stack, is
    collected together: each window is one ``simulate`` call over the
    cluster axis, each cluster under its own initial gain and excitation
    seed, and the memory check covers the summed bytes. The result then
    lists, per cluster, its batch or the error that ended its collection:
    ``NonFinite`` for a cluster whose rollout blew up (the others are
    collected again without it) or ``ExcitationDeficient``.
    """
    clustered = _is_stack(cluster)
    clusters = list(cluster) if clustered else [cluster]
    plants = list(plant) if clustered else [plant]
    r = len(clusters)
    if r == 0 or len(plants) != r:
        raise DimensionMismatch("need one plant per cluster problem")
    for c in clusters:
        if c.initial_gain is None:
            raise PreconditionFailed("cluster has no initial gain")
        if c.window_count is None:
            raise PreconditionFailed("cluster has no window count")
    n, m = clusters[0].state_dim, clusters[0].input_dim
    delta, L = clusters[0].sample_interval, clusters[0].window_count
    if any((c.state_dim, c.input_dim, c.sample_interval, c.window_count) != (n, m, delta, L)
           for c in clusters):
        raise DimensionMismatch("stacked clusters must share dimensions and window settings")
    steps = delta / dt
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps) or round(steps) < 1:
        raise PreconditionFailed("integration step must divide the window length")
    _check_memory(clusters)
    K0 = np.stack([matkit.as_matrix(c.initial_gain, "initial gain") for c in clusters])
    excitations = [
        ExcitationSignal(c.excitation, m) if c.excitation is not None else None
        for c in clusters
    ]
    X0 = np.asarray(x0, dtype=float).reshape(r, n)
    weights = np.full(int(round(steps)) + 1, dt)
    weights[0] = weights[-1] = 0.5 * dt

    def rollout(live):
        sub_plants = [plants[i] for i in live]
        sub_excitations = [excitations[i] for i in live]
        x = X0[live]
        x_start = np.empty((len(live), L, n))
        x_end = np.empty((len(live), L, n))
        ixx = np.empty((len(live), L, n, n))
        ixu = np.empty((len(live), L, n, m))
        start = time.monotonic()
        for w in range(L):
            _check_budget(start, w, L, deadline)
            traj = simulate(sub_plants, K0[live], sub_excitations, x, dt, delta,
                            t0=w * delta)
            xs = traj.x.transpose(1, 0, 2)                  # (r, steps + 1, n)
            xw = (xs * weights[:, None]).swapaxes(1, 2)
            x_start[:, w] = traj.x[0]
            x_end[:, w] = traj.x[-1]
            ixx[:, w] = xw @ xs
            ixu[:, w] = xw @ traj.u.transpose(1, 0, 2)
            x = traj.x[-1]
        return x_start, x_end, ixx, ixu

    live, arrays, failed = _drop_blowups(rollout, r)
    results: list = [failed.get(i) for i in range(r)]
    for j, i in enumerate(live):
        x_start, x_end, ixx, ixu = (a[j] for a in arrays)
        rank = matkit.numerical_rank(_reduced_rows(ixx, ixu))
        q = clusters[i].q
        results[i] = (
            ExcitationDeficient(
                f"regression rank {rank} below unknown count {q}; "
                "increase windows, amplitude, or component count"
            )
            if rank < q
            else TrajectoryBatch(x_start, x_end, ixx, ixu, rank, rank == q)
        )
    if clustered:
        return results
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def _phi(X: np.ndarray, tri) -> np.ndarray:
    """Distinct quadratic monomials x_i x_j (i <= j, ``tri`` the upper
    triangle's index pairs) for each row of X."""
    iu, ju = tri
    return X[:, iu] * X[:, ju]


def _unpack_p(sol: np.ndarray, tri, n: int) -> np.ndarray:
    """Recover symmetric P from the monomial coefficients (off-diagonal
    coefficients carry the factor 2)."""
    P = np.zeros((n, n))
    P[tri] = sol
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
    tri = np.triu_indices(n)
    d1 = tri[0].size
    phi_diff = _phi(batch.x_end, tri) - _phi(batch.x_start, tri)
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
        P = _unpack_p(sol[:d1], tri, n)
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
    """Per-cluster outcome. ``batch_of`` is the index of the cluster whose
    K0 probe and batch this cluster learned from (its own when it
    collected). ``wall_ms`` is the cluster's own regression and final
    probe plus its share of the stacked K0 probe and collection of its
    shape class: that time is split evenly over the clusters that
    collected in it, and a cluster that reused another's batch gets none.
    """

    index: int
    size: int
    iters: int
    residual: float
    wall_ms: float
    batch_of: int


def _embedded_cluster(f_global, Tn_rows: np.ndarray, Tm_rows: np.ndarray):
    """Black-box cluster dynamics from a black-box global plant: map the
    cluster state/input back to agent coordinates (the transformed state
    is zero outside the cluster), evaluate the plant, and keep the cluster
    rows of the transformed derivative. ``Tn_rows`` and ``Tm_rows`` are
    the cluster's rows of the state and input lifts."""

    def dyn(xi, v):
        dx = np.asarray(f_global(xi @ Tn_rows, v @ Tm_rows), dtype=float).ravel()
        return Tn_rows @ dx

    return dyn


def cluster_plants(plant, plan: DecompositionPlan, spec: LqrSpec):
    """Per-cluster simulation targets for a homogeneous agent model, a
    global (possibly heterogeneous) model, or a black-box callable.

    For a global model the cluster plant is the corresponding diagonal
    block of the transformed dynamics (exact for homogeneous plants, the
    block-diagonal approximation otherwise). For an agent model, clusters
    of equal size share one plant object, I_s (x) (A, B). The closures
    of a black-box plant share one state lift and one input lift.
    """
    n, m, N = spec.n, spec.m, spec.N
    if callable(plant) and not hasattr(plant, "A"):
        Tn = kron_lift(plan.T, n)
        Tm = kron_lift(plan.T, m)
        return [
            _embedded_cluster(plant, Tn[n * off:n * (off + s)], Tm[m * off:m * (off + s)])
            for off, s in zip(plan.offsets(), plan.cluster_sizes)
        ]
    A = matkit.require_square(plant.A, "plant.A")
    B = matkit.as_matrix(plant.B, "plant.B")
    if A.shape == (n, n) and B.shape == (n, m):
        by_size = {
            s: AgentModel(matkit.kron(np.eye(s), A), matkit.kron(np.eye(s), B))
            for s in set(plan.cluster_sizes)
        }
        return [by_size[s] for s in plan.cluster_sizes]
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

    Projects the problem onto the plan's clusters, then works in phases.
    The recorded data do not depend on a cluster's weights, so a cluster
    whose plant is the same object as an earlier cluster's and whose
    initial gain is equal to that cluster's reuses its probe and batch
    (collected under the earlier cluster's excitation seed). Only
    identical clusters of an agent model share a plant object (see
    ``cluster_plants``).

    The clusters that collect form shape classes: those with equal state
    and input dimensions and window settings share one. Each class gets
    one stacked ``empirical_abscissa`` probe of its initial gains and one
    stacked ``collect_batch`` over the clusters that pass it, so its
    clusters advance together in every window; each keeps its own
    excitation seed, window integrals and rank check. Grouping reads only
    the problems' dimensions, never plant matrices. The time of a class's
    probe and collection is split evenly over its clusters' ``wall_ms``.

    Then, in index order, every cluster runs off-policy policy iteration
    with its own weights and a final decay probe. The global gain is
    reassembled through the plan's transformation. The lowest-index
    cluster that failed (its probe, its batch or its regression) is
    re-raised as ``ClusterFailure`` with the stats of every lower-index
    cluster, as a one-at-a-time solve would; a failed shared probe or
    batch is tagged with the first cluster of its group.

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

    # shape classes of the clusters that collect; a cluster whose plant
    # object and K0 equal an earlier member's learns from that one's batch
    classes: dict[tuple, list[int]] = {}
    batch_of: list[int] = []
    for i, (problem, plant) in enumerate(zip(problems, plants)):
        key = (problem.state_dim, problem.input_dim, problem.sample_interval,
               problem.window_count)
        members = classes.setdefault(key, [])
        lead = next(
            (j for j in members
             if plants[j] is plant and np.array_equal(problems[j].initial_gain,
                                                      problem.initial_gain)),
            i,
        )
        if lead == i:
            members.append(i)
        batch_of.append(lead)

    # one stacked K0 probe and one stacked collection per class; each
    # collecting cluster ends with a batch or the error that stopped it
    outcome: dict[int, object] = {}
    wall = [0.0] * plan.r
    for members in classes.values():
        t0 = time.perf_counter()
        try:
            nc = problems[members[0]].state_dim
            abscissa = empirical_abscissa(
                [plants[i] for i in members],
                np.stack([problems[i].initial_gain for i in members]), nc)
            passed = []
            for i, a in zip(members, abscissa):
                if a >= 0:
                    outcome[i] = K0NotStabilizing(
                        f"initial gain for cluster {i} is not stabilizing")
                else:
                    passed.append(i)
            if passed:
                outcome.update(zip(passed, collect_batch(
                    [plants[i] for i in passed], [problems[i] for i in passed],
                    np.full((len(passed), nc), 1.0 / np.sqrt(nc)))))
        except Exception as exc:  # noqa: BLE001 - a whole-class failure
            outcome.update((i, exc) for i in members if i not in outcome)
        share = (time.perf_counter() - t0) / len(members)
        for i in members:
            wall[i] = share

    gains, stats = [], []
    for i, (problem, plant) in enumerate(zip(problems, plants)):
        t0 = time.perf_counter()
        batch = outcome[batch_of[i]]
        if isinstance(batch, Exception):
            raise ClusterFailure(i, batch, stats) from batch
        try:
            kappa, _, history = offpolicy_pi(batch, problem, plant=plant)
        except Exception as exc:  # noqa: BLE001 - tagged and re-raised
            raise ClusterFailure(i, exc, stats) from exc
        residual = (
            float(np.linalg.norm(history[-1][0] - history[-2][0]))
            if len(history) > 1
            else 0.0
        )
        wall_ms = 1e3 * (wall[i] + time.perf_counter() - t0)
        gains.append(kappa)
        stats.append(ClusterStats(i, plan.cluster_sizes[i], len(history), residual,
                                  wall_ms, batch_of[i]))
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
                "batchOf": s.batch_of,
            }
            for s in stats
        ],
        "totalWallMs": total_wall_ms,
    }
