"""Model-free solution layer.

The plant is only ever touched through trajectory simulation: data is
collected under a stabilizing behavior policy plus exploration noise,
and each cluster gain is learned by off-policy integral policy
iteration on the recorded windows. The learner never reads plant
matrices; cluster plants are exposed to it as simulation targets only.

The recorded data do not depend on a cluster's weights, so learning costs
one K0 probe and one batch per distinct (cluster plant, K0) pair, not one
per cluster. The clusters are decoupled, so those of equal dimensions (a
shape class) are handled together: ``simulate``, ``empirical_abscissa``
and ``collect_batch`` take a leading cluster axis, and the hierarchical
solve makes one stacked K0 probe and one stacked collection per class,
each cluster under its own excitation seed. The policy iterations of a
class then run in lockstep, one regression per cluster and iteration with
the cluster's own weights and convergence test, and end in one stacked
final decay probe of the learned gains. The time of a stacked phase is
split evenly over the clusters in it (their ``ClusterStats.wall_ms``).

The data settings are fixed: RK4 step dt = 5e-3, windows of 0.1 s (20
steps) integrated by the composite Simpson rule, L = 2q windows for q
regression unknowns, and a decay probe of 1 s at a step of 1e-2. Every
plant advances by its RK4 step map, read off the one RK4 body once per
``simulate`` call or collection, from A/B matrices or by evaluating a
black-box callable on unit states and inputs. The decay probe is the
horizon power of the step map, with no rollout. A callable plant must
thus be linear and time-invariant (checked at one point), as the
integral policy-iteration regression already assumes.
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
from .lqr import assemble_gain, cluster_plants

STATE_BLOWUP_NORM = 1e12
PROBE_DT = 1e-2
PROBE_HORIZON = 1.0
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
        """The (T, m) samples at T times, from the table sampler of
        ``_signal_stack`` started at t = 0 with the times as offsets."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return _sample_stack(_signal_stack([self], self.input_dim, times), 0.0)[:, 0]


def _signal_stack(signals: Sequence[ExcitationSignal | None], m: int, offsets: np.ndarray):
    """The frequencies and phases of r signals on m channels as (r, m, c)
    stacks, and their (r, m, T, 2c) table of a cos(w s) and a sin(w s) at
    the T ``offsets`` s. By angle addition,

        e(t0 + s) = a sum_j [sin(w_j t0 + p_j) cos(w_j s) + cos(w_j t0 + p_j) sin(w_j s)],

    so the table is built once and each start time t0 costs only the
    sines and cosines of its (r, m, c) start angles (``_sample_stack``).
    A missing signal has amplitude 0, and a signal with fewer than c
    components is padded with zero frequencies and phases, whose terms
    sin(0) cos(0 s) + cos(0) sin(0 s) = 0 add nothing. A cluster's samples
    are those of its own ``ExcitationSignal.sample`` at t0 = 0, bit for bit
    when every signal has c components (padding changes only the summation
    order). None when no signal is given."""
    if all(s is None for s in signals):
        return None
    c = max(s.freqs.shape[1] for s in signals if s is not None)
    freqs, phases = np.zeros((2, len(signals), m, c))
    amps = np.zeros(len(signals))
    for i, s in enumerate(signals):
        if s is not None:
            k = s.freqs.shape[1]
            freqs[i, :, :k], phases[i, :, :k], amps[i] = s.freqs, s.phases, s.amplitude
    angles = freqs[:, :, None] * offsets[:, None]                # (r, m, T, c)
    table = np.concatenate((np.cos(angles), np.sin(angles)), axis=3)
    table *= amps[:, None, None, None]
    return freqs, phases, table


def _sample_stack(signals, t0: float) -> np.ndarray:
    """The (T, r, m) samples of a ``_signal_stack`` at the times t0 + s of
    its table's offsets s: one batched matmul of the table with the sines
    and cosines of the start angles w t0 + p."""
    freqs, phases, table = signals
    angles = t0 * freqs + phases
    starts = np.concatenate((np.sin(angles), np.cos(angles)), axis=2)
    return (table @ starts[..., None])[..., 0].transpose(2, 0, 1)


def _closed_loop(plants, K: np.ndarray, dim: int, m: int):
    """Closed-loop derivative g(x, e) = f(x, e - K x) of r plants, each
    with its gain from the (r, m, dim) stack ``K``, for an (r, k, dim)
    stack of states and inputs that broadcast to (r, k, m).

    A/B plants are stacked into (A - BK)' and B'; a derivative callable
    f(x, u) is applied to one state at a time. Linear code meets f(0, 0) = 0
    and f(2z) = 2 f(z) exactly, so a finite violation at one seeded random
    z = (x, u) raises ``PreconditionFailed``."""
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
    z = np.random.default_rng(0).standard_normal(dim + m)
    for f in plants:
        f0, f1, f2 = (np.asarray(f(c * z[:dim], c * z[dim:]), dtype=float).ravel()
                      for c in (0.0, 1.0, 2.0))
        if (f0.size == f1.size == f2.size == dim and np.isfinite([f0, f1, f2]).all()
                and (f0.any() or not np.array_equal(f2, 2.0 * f1))):
            raise PreconditionFailed(
                "plant callable is not linear: f(0, 0) != 0 or f(2z) != 2 f(z)")
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


def _as_stack(values, name: str) -> np.ndarray:
    """``values`` as one float array; a ragged list raises
    ``DimensionMismatch`` instead of numpy's ``ValueError``."""
    try:
        return np.asarray(values, dtype=float)
    except ValueError as exc:
        raise DimensionMismatch(f"{name} do not form one numeric array: {exc}") from exc


def _plants_and_gains(plant, policy):
    """The list of plants, their finite (r, m, dim) gain stack and whether
    ``plant`` was a list (a single plant is the r = 1 case)."""
    clustered = _is_stack(plant)
    plants = list(plant) if clustered else [plant]
    K = (_as_stack(policy, "cluster gains") if clustered
         else matkit.as_matrix(policy, "policy")[None])
    if K.ndim != 3 or K.shape[0] != len(plants):
        raise DimensionMismatch("need one gain per cluster plant")
    if not np.all(np.isfinite(K)):
        raise PreconditionFailed("policy has non-finite entries")
    return plants, K, clustered


# a map that turns inf makes NaN, which the step check or probe test catches
@np.errstate(invalid="ignore", over="ignore")
def _step_maps(plants, K: np.ndarray, dim: int, m: int, dt: float, forced: bool):
    """One RK4 step with half-step excitation is the linear map
    x+ = Phi x + G0 e0 + G1 e1 + G2 e2. Returns Phi' as an (r, dim, dim)
    stack and, when ``forced``, (G0', G1', G2') as (r, m, dim) stacks
    (else None), each read off the RK4 body applied to unit states or
    inputs under the (r, m, dim) gains ``K``."""
    g = _closed_loop(plants, K, dim, m)
    half = 0.5 * dt

    def rk4(x, e0, e1, e2):
        k1 = g(x, e0)
        k2 = g(x + half * k1, e1)
        k3 = g(x + half * k2, e1)
        k4 = g(x + dt * k3, e2)
        return x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

    r = len(plants)
    no_input = np.zeros((1, m))
    Phi_t = rk4(np.broadcast_to(np.eye(dim), (r, dim, dim)), no_input, no_input, no_input)
    if not forced:
        return Phi_t, None
    eye, zero, no_state = np.eye(m), np.zeros((m, m)), np.zeros((r, m, dim))
    return Phi_t, (rk4(no_state, eye, zero, zero), rk4(no_state, zero, eye, zero),
                   rk4(no_state, zero, zero, eye))


def _window(Phi_t, G_t, K: np.ndarray, E: np.ndarray, x: np.ndarray):
    """The step loop of every rollout: the (steps + 1, r, dim) states from
    ``x`` under the maps of ``_step_maps`` and the (2 steps + 1, r, m)
    half-step samples ``E``, and the inputs U = e - K x at the step times.
    ``NonFinite`` names the clusters whose state blew up."""
    steps, (r, dim) = E.shape[0] // 2, x.shape
    # each cluster's state is a (1, dim) row of the (r, 1, dim) stack
    X = np.empty((steps + 1, r, 1, dim))
    X[0] = x[:, None]
    x = X[0]
    bound = STATE_BLOWUP_NORM**2
    # a map or state that turns inf makes NaN; the step check raises
    with np.errstate(invalid="ignore", over="ignore"):
        # x+ = x Phi' + e0 G0' + e1 G1' + e2 G2', one (r, ., dim) map per cluster
        F = None
        if G_t is not None:
            Er = E.transpose(1, 0, 2)                       # (r, 2 steps + 1, m)
            F = Er[:, 0:-1:2] @ G_t[0] + Er[:, 1::2] @ G_t[1] + Er[:, 2::2] @ G_t[2]
            F = np.ascontiguousarray(F.transpose(1, 0, 2)[:, :, None])
        # each step writes the next state straight into its trajectory row
        for k in range(steps):
            x = np.matmul(x, Phi_t, out=X[k + 1])
            if F is not None:
                x += F[k]
            # false for NaN, for inf and for a norm above the blow-up bound;
            # the whole stack's squared norm bounds each cluster's, so
            # clusters are checked one by one only when it fails
            if not np.vdot(x, x) <= bound:
                blown = np.flatnonzero(~(np.einsum("rki,rki->r", x, x) <= bound))
                if blown.size:
                    raise NonFinite(f"state blew up at step {k + 1}", clusters=blown)
    X = X[:, :, 0]
    U = E[::2] - (X.swapaxes(0, 1) @ K.swapaxes(1, 2)).swapaxes(0, 1)
    return X, U


def simulate(plant, policy, excitation, x0, dt: float, horizon: float) -> Trajectory:
    """Fixed-step classic 4th-order Runge-Kutta rollout of the closed loop
    u = -K x + e(t) from t = 0.

    ``plant`` is either an object with A/B matrices or a black-box linear
    derivative callable f(x, u), which is applied to one state at a time.
    ``x0`` is one initial state. ``excitation`` is None (e = 0) or an
    ``ExcitationConfig``, whose signal e is sampled on the half-step grid
    so each integrator stage sees e at its own time. Deterministic for a
    given excitation seed. Raises ``NonFinite`` if any state turns NaN or
    inf or its norm exceeds 1e12, ``DimensionMismatch`` if ``x0`` has the
    wrong shape or a callable plant returns the wrong number of values,
    and ``PreconditionFailed`` for any other kind of excitation.

    A list of r plants of equal dimensions adds a leading cluster axis:
    ``policy`` then holds r gains, ``excitation`` is None or a list of r
    of them, and ``x0`` is an (r, dim) stack; the trajectory carries the
    cluster axis second. The clusters advance together and never mix, and
    the ``NonFinite`` of a blow-up names the clusters whose states blew up
    in its ``clusters``. A single plant is the r = 1 case.

    The step maps are read once per call, so a step is one (stacked)
    matrix product and a callable plant is evaluated 4 (dim + 3m) + 3
    times per cluster and call, whatever the horizon. The decay probe takes
    the horizon power of the same unforced map instead of a rollout.
    """
    if dt <= 0:
        raise PreconditionFailed("dt must be positive")
    if horizon < dt:
        raise PreconditionFailed("horizon must be at least one step")
    plants, K, clustered = _plants_and_gains(plant, policy)
    r = len(plants)
    excitations = (list(excitation) if clustered and excitation is not None
                   else [excitation] * r)
    if len(excitations) != r:
        raise DimensionMismatch("need one excitation per cluster plant")
    if not all(e is None or isinstance(e, ExcitationConfig) for e in excitations):
        raise PreconditionFailed("an excitation must be None or an ExcitationConfig")
    x = _as_stack(x0 if clustered else [x0], "initial states")
    if x.ndim != 2 or x.shape[0] != r:
        raise DimensionMismatch(f"initial states of shape {np.shape(x0)} for {r} plant(s)")
    dim, m = x.shape[1], K.shape[1]
    if K.shape[2] != dim:
        raise DimensionMismatch(f"policy is {K.shape[1:]}, state dim is {dim}")
    steps = int(round(horizon / dt))
    stage_times = 0.5 * dt * np.arange(2 * steps + 1)
    signals = [None if e is None else ExcitationSignal(e, m) for e in excitations]
    stack = _signal_stack(signals, m, stage_times)
    E = (np.zeros((stage_times.size, r, m)) if stack is None
         else _sample_stack(stack, 0.0))                   # (2 steps + 1, r, m)
    Phi_t, G_t = _step_maps(plants, K, dim, m, dt, forced=stack is not None)
    X, U = _window(Phi_t, G_t, K, E, x)
    if not clustered:
        X, U = X[:, 0], U[:, 0]
    return Trajectory(dt * np.arange(steps + 1), X, U)


def empirical_abscissa(plant, gain) -> float | np.ndarray:
    """Closed-loop spectral abscissa estimated from the black-box step map.

    The transition matrix over ``PROBE_HORIZON`` under u = -K x is the
    horizon power of the RK4 step map at ``PROBE_DT``, with no rollout and
    no read of plant matrices; it gives log(spectral radius) / horizon, or
    ``inf`` when it is non-finite or its Frobenius norm exceeds 1e12.

    A list of r plants with an (r, m, dim) stack of gains gives an array of
    r abscissas; clusters never mix, so a blown one leaves the others as
    they are.
    """
    plants, gains, clustered = _plants_and_gains(plant, gain)
    m, dim = gains.shape[1:]
    out = np.full(len(plants), np.inf)
    # a map that overflows makes inf or NaN and is caught by the norm test;
    # log(0) = -inf: a transition map that annihilates every state
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        Phi_t, _ = _step_maps(plants, gains, dim, m, PROBE_DT, forced=False)
        M = np.linalg.matrix_power(Phi_t, round(PROBE_HORIZON / PROBE_DT))
        ok = np.linalg.norm(M, axis=(1, 2)) <= STATE_BLOWUP_NORM
        if ok.any():
            out[ok] = np.log(np.abs(np.linalg.eigvals(M[ok])).max(axis=1)) / PROBE_HORIZON
    return out if clustered else float(out[0])


@dataclass(eq=False)
class TrajectoryBatch:
    """Per-window endpoint states and composite Simpson input/state moment
    integrals, plus the numerical rank q of the regression data."""

    x_start: np.ndarray  # (L, n)
    x_end: np.ndarray    # (L, n)
    ixx: np.ndarray      # (L, n, n), integral of outer(x, x) over each window
    ixu: np.ndarray      # (L, n, m), integral of outer(x, u) over each window
    rank: int

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
    window holding the distinct quadratic monomial integrals (the upper
    triangle of ixx, row by row) and the state-input cross integrals (ixu
    flattened). Leading axes of a stack of batches are kept."""
    n = batch_ixx.shape[-1]
    iu, ju = np.triu_indices(n)
    quad = batch_ixx[..., iu, ju]
    cross = batch_ixu.reshape(*batch_ixu.shape[:-2], -1)
    return np.concatenate((quad, cross), axis=-1)


def collect_batch(plant, cluster: ClusterProblem, x0, dt: float = 5e-3,
                  deadline: float | None = None) -> TrajectoryBatch | list:
    """Record L windows of closed-loop data under the cluster's initial gain
    plus exploration noise, with composite Simpson window integrals on the
    simulation steps, weights dt/3 [1, 4, 2, ..., 4, 1]. ``dt`` must be
    finite and positive and divide the window into an even number of steps,
    else ``PreconditionFailed`` is raised.

    Before anything is allocated, the bytes that collection and the
    regression will certainly need (``decomp.regression_bytes``) are
    compared with the host's physical memory. Raises ``BudgetExceeded``
    when they cannot fit, or when a deadline is given and passed (or
    provably unreachable), and ``ExcitationDeficient`` when the regression
    data matrix has numerical rank below the unknown count.

    The step maps are read once per collection and every window runs the
    step loop of ``simulate`` on them, so a callable plant is evaluated
    4 (n + 3m) + 3 times per cluster and collection. The excitation
    signals are stacked, with their table at the window's stage offsets,
    once per collection; each window then samples every live cluster by
    angle addition from the sines and cosines of its start angles
    (``_sample_stack``).

    A list of r problems with equal dimensions and window settings, with
    ``plant`` the list of their plants and ``x0`` an (r, n) stack, is
    collected together: each window advances the whole cluster axis, each
    cluster under its own initial gain and excitation seed, and the memory
    check covers the summed bytes. The result then lists, per cluster, its
    batch or the error that ended its collection: ``NonFinite`` for a
    cluster whose rollout blew up (the others redo that window without it,
    from their window-start states) or ``ExcitationDeficient``.
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
    n, m = clusters[0].state_dim, clusters[0].input_dim
    delta, L = clusters[0].sample_interval, clusters[0].window_count
    if any((c.state_dim, c.input_dim, c.sample_interval, c.window_count) != (n, m, delta, L)
           for c in clusters):
        raise DimensionMismatch("stacked clusters must share dimensions and window settings")
    if not (dt > 0 and np.isfinite(dt)):
        raise PreconditionFailed(f"integration step must be finite and positive, got {dt}")
    steps = round(delta / dt)
    if steps < 1 or abs(delta / dt - steps) > 1e-9 * max(1.0, delta / dt):
        raise PreconditionFailed("integration step must divide the window length")
    if steps % 2:
        raise PreconditionFailed(
            f"Simpson window integrals need an even step count per window, got {steps}")
    _check_memory(clusters)
    K0 = _as_stack([matkit.as_matrix(c.initial_gain, "initial gain") for c in clusters],
                   "initial gains")
    if K0.shape != (r, m, n):
        raise DimensionMismatch(f"initial gains must be {m} x {n}")
    X0 = _as_stack(x0, "initial states")
    if not clustered and X0.size == n:
        X0 = X0.reshape(1, n)
    if X0.shape != (r, n):
        raise DimensionMismatch(f"initial states of shape {X0.shape} for {r} cluster(s)")
    weights = np.full(steps + 1, 2.0 * dt / 3.0)
    weights[1::2] = 4.0 * dt / 3.0
    weights[0] = weights[-1] = dt / 3.0
    signals = _signal_stack([None if c.excitation is None
                             else ExcitationSignal(c.excitation, m) for c in clusters],
                            m, 0.5 * dt * np.arange(2 * steps + 1))
    Phi_t, G_t = _step_maps(plants, K0, n, m, dt, forced=signals is not None)
    E = np.zeros((2 * steps + 1, r, m))
    x_start, x_end = np.empty((r, L, n)), np.empty((r, L, n))
    ixx, ixu = np.empty((r, L, n, n)), np.empty((r, L, n, m))
    results: list = [None] * r
    live, x, K = np.arange(r), X0, K0
    start = time.monotonic()
    w = 0
    while w < L and live.size:
        _check_budget(start, w, L, deadline)
        if signals is not None:
            E = _sample_stack(signals, w * delta)
        try:
            X, U = _window(Phi_t, G_t, K, E, x)
        except NonFinite as exc:
            # the clusters it names fail; the others redo this window
            for i in live[list(exc.clusters)]:
                results[i] = exc
            keep = np.delete(np.arange(live.size), exc.clusters)
            live, x, K, Phi_t, E = live[keep], x[keep], K[keep], Phi_t[keep], E[:, keep]
            G_t = G_t and tuple(G[keep] for G in G_t)
            signals = signals and tuple(a[keep] for a in signals)
            continue
        xs = X.transpose(1, 0, 2)                           # (r, steps + 1, n)
        xw = (xs * weights[:, None]).swapaxes(1, 2)
        x_start[live, w] = X[0]
        x_end[live, w] = X[-1]
        ixx[live, w] = xw @ xs
        ixu[live, w] = xw @ U.transpose(1, 0, 2)
        x = X[-1]
        w += 1

    # one stacked SVD ranks every batch that completed its windows
    ranks = matkit.numerical_rank(_reduced_rows(ixx[live], ixu[live]))
    for i, rank in zip(live, ranks):
        rank, q = int(rank), clusters[i].q
        results[i] = (
            ExcitationDeficient(
                f"regression rank {rank} below unknown count {q}; "
                "increase windows, amplitude, or component count"
            )
            if rank < q
            else TrajectoryBatch(x_start[i], x_end[i], ixx[i], ixu[i], rank)
        )
    if clustered:
        return results
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def _phi(X: np.ndarray, tri) -> np.ndarray:
    """Distinct quadratic monomials x_i x_j (i <= j, ``tri`` the upper
    triangle's index pairs) for each row of X, over any leading axes."""
    iu, ju = tri
    return X[..., iu] * X[..., ju]


class _Compressed(NamedTuple):
    """The R-factors [[R11, R1D], [0, RDD]] of the (B, L, d1 + q) stack
    [Phi | D] of B batches (``_compress``), with the q columns of D split
    back into the moment integrals they hold. Row l of a factor is a
    linear combination of the windows, so it holds a 'compressed window'
    with moments ixx_l (an n x n symmetric matrix, from the upper triangle)
    and ixu_l (n x m), laid out for ``_regression_triangles``:
    xx[b, k, l n + j] = ixx_l[k, j], xu[b, i, l n + j] = ixu_l[j, i] and
    quad[b, l, k n + j] = ixx_l[k, j], for the p = min(L, d1 + q) rows."""

    r11: np.ndarray   # (B, d1, d1)
    xx: np.ndarray    # (B, n, p n)
    xu: np.ndarray    # (B, m, p n)
    quad: np.ndarray  # (B, p, n n)


def _compress(x_start: np.ndarray, x_end: np.ndarray, ixx: np.ndarray,
              ixu: np.ndarray) -> _Compressed:
    """One R-only Householder QR of the stacked [Phi | D] of B batches,
    Phi = phi(x_end) - phi(x_start) and D = ``_reduced_rows(ixx, ixu)``
    (Golub & Van Loan, Matrix Computations, sec. 5.3). A batch with a
    non-finite entry gets an all-NaN factor, which fails its regressions
    with ``LinAlgError`` in ``_solve_regressions``."""
    B, L, n, m = ixu.shape
    tri = np.triu_indices(n)
    d1 = tri[0].size
    data = np.concatenate((_phi(x_end, tri) - _phi(x_start, tri), _reduced_rows(ixx, ixu)),
                          axis=2)
    Rb = np.linalg.qr(data, mode="r")
    Rb[~np.isfinite(data).all(axis=(1, 2))] = np.nan
    p = Rb.shape[1]
    G = np.empty((B, p, n, n))
    G[:, :, tri[0], tri[1]] = G[:, :, tri[1], tri[0]] = Rb[:, :, d1:2 * d1]
    U = Rb[:, :, 2 * d1:].reshape(B, p, n, m)
    return _Compressed(Rb[:, :d1, :d1], G.transpose(0, 2, 1, 3).reshape(B, n, p * n),
                       U.transpose(0, 3, 1, 2).reshape(B, m, p * n), G.reshape(B, p, n * n))


def _regression_triangles(comp: _Compressed, at, K: np.ndarray, R: np.ndarray,
                          Qbar: np.ndarray) -> np.ndarray:
    """The leading q rows of the R-factors of a regressions [theta | rhs],
    from the compressed batches ``comp[at]`` (``at`` an index
    array, or a slice when one batch serves all), the (a, m, n) gains K,
    the (a, m, m) weights R and the (a, n, n) symmetric Q + K'RK.

    Window l's row of the regression is [Phi_l | D_l W | -<ixx_l, Q + K'RK>]
    with D_l W = -2 R (ixu_l' + K ixx_l), a fixed linear image of D_l. Since
    [Phi | D] = Q_b [[R11, R1D], [0, RDD]] with Q_b orthonormal, the
    regression's R-factor is [[R11, R1D W], [0, T]], T the R-factor of
    RDD W. So each call applies W to the p compressed rows, by two stacked
    matrix products over all of them, and factors only the (p - d1) x
    (mn + 1) block RDD W; no array of length L is touched."""
    a, m, n = K.shape
    d1 = comp.r11.shape[1]
    p, mn = comp.quad.shape[1], m * n
    q = d1 + mn
    # -2 R (ixu_l' + K ixx_l) for every compressed row l, as (a, m, p n)
    cross = -2.0 * (R @ (comp.xu[at] + K @ comp.xx[at]))
    rows = np.empty((a, p, mn + 1))
    rows[:, :, :mn] = cross.reshape(a, m, p, n).swapaxes(1, 2).reshape(a, p, mn)
    rows[:, :, mn] = -(comp.quad[at] @ Qbar.reshape(a, n * n, 1))[:, :, 0]
    Rf = np.zeros((a, q, q + 1))
    Rf[:, :d1, :d1] = comp.r11[at]
    Rf[:, :d1, d1:] = rows[:, :d1]
    Rf[:, d1:, d1:] = np.linalg.qr(rows[:, d1:], mode="r")[:, :mn]
    return Rf


def _back_substitute(T: np.ndarray, B: np.ndarray, X: np.ndarray) -> None:
    """Write into X the solution of T X = B for an (a, k, k) stack of upper
    triangles T and an (a, k, c) stack B, by recursive halving:
    X2 = T22^-1 B2, then X1 = T11^-1 (B1 - T12 X2). Every step is a
    stacked matrix product and every 1 x 1 leaf one division, so each
    matrix gets the same bits in any stack."""
    k = T.shape[1]
    if k == 1:
        np.divide(B, T, out=X)
        return
    h = k // 2
    _back_substitute(T[:, h:, h:], B[:, h:], X[:, h:])
    _back_substitute(T[:, :h, :h], B[:, :h] - T[:, :h, h:] @ X[:, h:], X[:, :h])


def _solve_regressions(Rf: np.ndarray):
    """Least-squares solutions of a regressions [theta | rhs], given the
    leading q rows of their R-factors as an (a, q, q + 1) stack: the
    q x q triangle of theta and, in the last column, Q' rhs (Golub & Van
    Loan, Matrix Computations, sec. 5.3). Returns the solutions and per
    regression None or the error that rejects it.

    Every triangle with no exact zero on its diagonal is solved against
    [Q' rhs | I] in one stacked recursive back substitution
    (``_back_substitute``), which gives the solution and the inverse
    together. Since the condition of theta, which is that of its triangle,
    is at most ||R||_F ||R^-1||_F (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 6.2), a regression whose bound is within
    half of ``REGRESSION_COND_LIMIT`` is accepted at once; only the others
    get the singular values of their triangles. A regression with a
    non-finite entry fails alone with ``LinAlgError`` before the stacked
    calls; one whose smallest singular value is not positive or whose
    condition exceeds ``REGRESSION_COND_LIMIT`` fails with
    ``RegressionSingular``. Every accepted solution comes from the one
    stacked solve, so a regression gets the same bits in any stack and
    under any limit that accepts it."""
    a, q = Rf.shape[:2]
    sol = np.zeros((a, q))
    errors: list = [None] * a
    finite = np.isfinite(Rf).all(axis=(1, 2))
    for j in np.flatnonzero(~finite):
        errors[j] = np.linalg.LinAlgError("regression has non-finite entries")
    live = np.flatnonzero(finite)
    tri = Rf[live, :, :q]
    # a triangle with a zero on its diagonal is singular
    solvable = (np.diagonal(tri, axis1=1, axis2=2) != 0).all(axis=1)
    Rs = Rf[live[solvable]]
    rhs = np.empty_like(Rs)
    rhs[:, :, 0], rhs[:, :, 1:] = Rs[:, :, q], np.eye(q)
    X = np.empty_like(Rs)
    certified = np.zeros(live.size, dtype=bool)
    # an overflow makes the bound inf or NaN, which fails the test below
    with np.errstate(all="ignore"):
        _back_substitute(Rs[:, :, :q], rhs, X)
        bound = np.sqrt(np.einsum("sij,sij->s", Rs[:, :, :q], Rs[:, :, :q])
                        * np.einsum("sij,sij->s", X[:, :, 1:], X[:, :, 1:]))
    # the factor 2 absorbs the rounding of the computed inverse
    certified[solvable] = bound <= 0.5 * REGRESSION_COND_LIMIT
    sol[live[solvable]] = X[:, :, 0]
    rest = np.flatnonzero(~certified)
    if rest.size:
        sv = np.linalg.svd(tri[rest], compute_uv=False)
        cond = sv[:, 0] / np.maximum(sv[:, -1], np.finfo(float).tiny)
        # a condition at most REGRESSION_COND_LIMIT = 1e10 puts every
        # singular value above lstsq's rank cutoff eps max(L, q) sigma_max
        # for any L < 4.5e5 windows, so an accepted regression has full rank q
        bad = (sv[:, -1] <= 0) | (cond > REGRESSION_COND_LIMIT) | ~solvable[rest]
        for j, c in zip(live[rest[bad]], cond[bad]):
            errors[j] = RegressionSingular(f"regression condition {c:.3e}")
        sol[live[rest[bad]]] = 0.0
    return sol, errors


def _lockstep_pi(batches: Sequence[TrajectoryBatch], clusters: Sequence[ClusterProblem],
                 plants, deadline: float | None = None) -> list:
    """Off-policy policy iteration of r clusters of one shape in lockstep.

    Cluster i learns from ``batches[i]``; clusters may share a batch
    object. Only the first d1 = n(n+1)/2 columns Phi of a regression are
    fixed; the others are a linear image D W of the batch's L x q reduced
    rows D (``_reduced_rows``), W built from the cluster's weights and
    current gain. So each distinct batch is compressed once, by one
    stacked R-only QR of [Phi | D] over the distinct batches
    (``_compress``), and every iteration forms each active cluster's
    regression triangle from its batch's (d1 + q)-row factor, factoring
    only a q x (mn + 1) block (``_regression_triangles``); no array of
    length L is touched inside the loop. The triangles are solved
    together by one stacked back substitution, whose inverse triangles
    bound each regression's condition; only a regression that the bound
    does not accept gets a singular-value check (``_solve_regressions``).
    A cluster leaves the active set when it converges or fails, and the
    others go on; the deadline is checked once per iteration. The
    converged gains end in one stacked decay probe over ``plants`` (a
    list of r plants).

    Returns, per cluster, (K, P, history) or the error that ended it.
    """
    r = len(clusters)
    n, m = clusters[0].state_dim, clusters[0].input_dim
    if len(batches) != r or len(plants) != r:
        raise DimensionMismatch("need one batch and one plant per cluster problem")
    L = batches[0].window_count
    if any((c.state_dim, c.input_dim) != (n, m) or b.ixx.shape != (L, n, n)
           or b.ixu.shape != (L, n, m) for b, c in zip(batches, clusters)):
        raise DimensionMismatch("lockstep clusters must share dimensions and window count")
    if any(b.rank < c.q for b, c in zip(batches, clusters)):
        raise PreconditionFailed("batch failed the excitation rank condition")
    if any(c.initial_gain is None for c in clusters):
        raise PreconditionFailed("cluster has no initial gain")
    Q = np.stack([c.Qblock for c in clusters])
    R = np.stack([c.Rblock for c in clusters])
    K = np.stack([matkit.as_matrix(c.initial_gain, "initial gain") for c in clusters])
    # the data of each distinct batch, indexed by src[cluster], compressed
    # by one stacked QR
    distinct = list({id(b): b for b in batches}.values())
    slot = {id(b): s for s, b in enumerate(distinct)}
    src = np.array([slot[id(b)] for b in batches])
    comp = _compress(*(np.stack([getattr(b, f) for b in distinct])
                       for f in ("x_start", "x_end", "ixx", "ixu")))
    tri = np.triu_indices(n)
    d1 = tri[0].size
    results: list = [None] * r
    history: list[list] = [[] for _ in range(r)]
    converged: list[int] = []
    live = np.arange(r)
    P_prev = None
    for it in range(PI_MAX_ITER):
        if deadline is not None and time.monotonic() > deadline:
            for i in live:
                results[i] = BudgetExceeded(f"budget passed during iteration {it}")
            live = live[:0]
            break
        # a single batch broadcasts over the clusters
        at = src[live] if len(distinct) > 1 else slice(None)
        Qbar = matkit.symmetrize(Q[live] + K.swapaxes(1, 2) @ R[live] @ K)
        sol, errors = _solve_regressions(_regression_triangles(comp, at, K, R[live], Qbar))
        for i, exc in zip(live, errors):
            results[i] = exc
        # off-diagonal monomial coefficients carry the factor 2
        P = np.zeros((live.size, n, n))
        P[:, tri[0], tri[1]] = sol[:, :d1]
        P = matkit.symmetrize(P)
        K = sol[:, d1:].reshape(-1, m, n)
        stay = np.array([results[i] is None for i in live], dtype=bool)
        for j in np.flatnonzero(stay):
            history[live[j]].append((P[j], K[j]))
        if P_prev is not None:
            D, Pf = (P - P_prev).reshape(live.size, -1), P.reshape(live.size, -1)
            done = stay & (np.sqrt(np.vecdot(D, D))
                           <= np.maximum(PI_TOL, 1e-12 * np.sqrt(np.vecdot(Pf, Pf))))
            converged.extend(live[done])
            stay &= ~done
        live, P_prev, K = live[stay], P[stay], K[stay]
        if live.size == 0:
            break
    for i in live:
        results[i] = MaxIterExceeded(f"no convergence within {PI_MAX_ITER} iterations")
    if not converged:
        return results

    converged.sort()
    P_end = np.stack([history[i][-1][0] for i in converged])
    K_end = np.stack([history[i][-1][1] for i in converged])
    try:
        stable = empirical_abscissa([plants[i] for i in converged], K_end) < 0
    except PreconditionFailed as exc:  # a plant of the stack cannot be probed
        for i in converged:
            results[i] = exc
        return results
    for i, ok, Pi, Ki in zip(converged, stable, P_end, K_end):
        results[i] = (Ki, Pi, history[i]) if ok else NotStabilizing(
            "learned gain failed the empirical decay probe")
    return results


def offpolicy_pi(batch: TrajectoryBatch, cluster: ClusterProblem, *, plant):
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
    The final gain is checked by an empirical closed-loop decay probe on
    the simulation target ``plant``; failure raises ``NotStabilizing``.

    The regression is never formed window by window: the batch's fixed
    columns and reduced rows are factored once, and each iteration solves
    the (q + 1)-row triangle that the gain's linear image of that factor
    gives (see ``_lockstep_pi``). This is the one-cluster case of the
    lockstep iteration that ``hierarchical_solve`` runs over each shape
    class, so a cluster learns the same gain, in as many iterations, alone
    or in its class.
    """
    result = _lockstep_pi([batch], [cluster], [plant])[0]
    if isinstance(result, Exception):
        raise result
    return result


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
    collected). ``wall_ms`` is the cluster's share of the stacked phases
    of its shape class. The K0 probe and collection are split evenly over
    the clusters that collected in it, so a cluster that reused another's
    batch gets none of them; the lockstep policy iteration and final
    decay probe are split evenly over every cluster that learned in it.
    """

    index: int
    size: int
    iters: int
    residual: float
    wall_ms: float
    batch_of: int


def hierarchical_solve(spec: LqrSpec, plan: DecompositionPlan, plant_access,
                       config: HierarchicalConfig | None = None,
                       deadline: float | None = None):
    """Run the full hierarchical model-free pipeline.

    Projects the problem onto the plan's clusters, then works in phases.
    The recorded data do not depend on a cluster's weights, so a cluster
    whose plant is the same object as an earlier cluster's and whose
    initial gain is equal to that cluster's reuses its probe and batch
    (collected under the earlier cluster's excitation seed). Only
    identical clusters of an agent model share a plant object (see
    ``cluster_plants``).

    Clusters with equal state and input dimensions and window settings
    form a shape class. Each class gets one stacked ``empirical_abscissa``
    probe of the initial gains of its clusters that collect and one
    stacked ``collect_batch`` over those that pass it, so they advance
    together in every window; each keeps its own excitation seed, window
    integrals and rank check. A probe is the horizon power of the stacked
    step maps, not a rollout, and grouping reads only the problems'
    dimensions, never plant matrices. The time of a class's probe and
    collection is split evenly over the ``wall_ms`` of the clusters that
    collected.

    Then every cluster of a class whose batch succeeded, those that reuse
    another's batch included, runs off-policy policy iteration with its
    own weights, all in lockstep: each iteration stacks their regressions,
    a cluster leaves when it converges or fails and the others go on, and
    the converged gains get one stacked final decay probe. Each cluster
    learns the gain that ``offpolicy_pi`` alone would give it. The global
    gain is reassembled through the plan's transformation. The
    lowest-index cluster that failed (its probe, its batch, its regression
    or its final probe) is re-raised as ``ClusterFailure`` with the stats
    of every lower-index cluster, as a one-at-a-time solve would; a failed
    shared probe or batch is tagged with the first cluster of its group.
    The time of a class's policy iteration is split evenly over the
    ``wall_ms`` of the clusters in it. A ``deadline`` (a ``time.monotonic``
    value) bounds every collection and policy iteration; a cluster it
    stops fails with ``BudgetExceeded``.

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

    # shape classes; a cluster whose plant object and K0 equal an earlier
    # member's learns from that one's batch
    classes: dict[tuple, list[int]] = {}
    batch_of: list[int] = []
    for i, (problem, plant) in enumerate(zip(problems, plants)):
        key = (problem.state_dim, problem.input_dim, problem.sample_interval,
               problem.window_count)
        members = classes.setdefault(key, [])
        batch_of.append(next(
            (j for j in members
             if batch_of[j] == j and plants[j] is plant
             and np.array_equal(problems[j].initial_gain, problem.initial_gain)),
            i,
        ))
        members.append(i)

    # per class: one stacked K0 probe and one stacked collection over the
    # clusters that collect, each ending with a batch or the error that
    # stopped it; then one lockstep policy iteration over every cluster
    # whose batch succeeded, each ending with (K, P, history) or an error
    batches: dict[int, object] = {}
    outcome: dict[int, object] = {}
    wall = [0.0] * plan.r
    for members in classes.values():
        leads = [i for i in members if batch_of[i] == i]
        t0 = time.perf_counter()
        try:
            abscissa = empirical_abscissa(
                [plants[i] for i in leads],
                np.stack([problems[i].initial_gain for i in leads]))
            passed = []
            for i, a in zip(leads, abscissa):
                if a >= 0:
                    batches[i] = K0NotStabilizing(
                        f"initial gain for cluster {i} is not stabilizing")
                else:
                    passed.append(i)
            if passed:
                nc = problems[leads[0]].state_dim
                batches.update(zip(passed, collect_batch(
                    [plants[i] for i in passed], [problems[i] for i in passed],
                    np.full((len(passed), nc), 1.0 / np.sqrt(nc)), deadline=deadline)))
        except Exception as exc:  # noqa: BLE001 - a whole-class failure
            batches.update((i, exc) for i in leads if i not in batches)
        share = (time.perf_counter() - t0) / len(leads)
        for i in leads:
            wall[i] = share

        ready = [i for i in members if isinstance(batches[batch_of[i]], TrajectoryBatch)]
        if ready:
            t0 = time.perf_counter()
            outcome.update(zip(ready, _lockstep_pi(
                [batches[batch_of[i]] for i in ready], [problems[i] for i in ready],
                [plants[i] for i in ready], deadline)))
            share = (time.perf_counter() - t0) / len(ready)
            for i in ready:
                wall[i] += share
        outcome.update((i, batches[batch_of[i]]) for i in members if i not in outcome)

    gains, stats = [], []
    for i in range(plan.r):
        result = outcome[i]
        if isinstance(result, Exception):
            raise ClusterFailure(i, result, stats) from result
        kappa, _, history = result
        residual = (
            float(np.linalg.norm(history[-1][0] - history[-2][0]))
            if len(history) > 1
            else 0.0
        )
        gains.append(kappa)
        stats.append(ClusterStats(i, plan.cluster_sizes[i], len(history), residual,
                                  1e3 * wall[i], batch_of[i]))
    K = assemble_gain(plan, gains, spec.n, spec.m)
    return K, stats


def stats_to_json(stats: Sequence[ClusterStats], total_wall_ms: float) -> dict:
    """The ``perCluster`` record and ``totalWallMs`` of a solve."""
    return {
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


def result_to_json(K: np.ndarray, stats: Sequence[ClusterStats],
                   total_wall_ms: float) -> dict:
    return {"K": matkit.matrix_to_json(K), **stats_to_json(stats, total_wall_ms)}
