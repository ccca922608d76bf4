import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest

from hlqr import matkit, rl
from hlqr.bench import derive_initial_gain
from hlqr.decomp import (
    ClusterProblem,
    ExcitationConfig,
    LqrSpec,
    construct_T,
    project_problem,
    regression_bytes,
    unknown_count,
)
from hlqr.errors import (
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
from hlqr.lqr import AgentModel, assemble_gain, evaluate_cost
from hlqr.rl import (
    HierarchicalConfig,
    collect_batch,
    empirical_abscissa,
    hierarchical_solve,
    offpolicy_pi,
    simulate,
)
from hlqr.robust import HeteroModel
from conftest import random_laplacian, random_spd


def scalar_cluster(q=1.0, r=1.0, k0=1.5, seed=0, windows=None, amplitude=1.0):
    problem = ClusterProblem(
        state_dim=1,
        input_dim=1,
        Qblock=np.array([[q]]),
        Rblock=np.array([[r]]),
        initial_gain=np.array([[k0]]),
        excitation=ExcitationConfig(seed=seed, amplitude=amplitude),
        sample_interval=0.1,
        window_count=windows if windows is not None else 2 * 2,
    )
    return problem


SCALAR_PLANT = AgentModel(np.zeros((1, 1)), np.eye(1))


def msd_pair(k=1.0, c=1.0, mass=1.0):
    """Planar mass-spring-damper agent, 4 states and 2 inputs."""
    z, eye = np.zeros((2, 2)), np.eye(2)
    A = np.block([[z, eye], [-(k / mass) * eye, -(c / mass) * eye]])
    B = np.vstack([z, eye / mass])
    return A, B


MSD_GAIN = np.array([[0.4, 0.1, 0.8, 0.0], [-0.2, 0.5, 0.1, 0.7]])


def stagewise_rk4(f, K, exc, X0, dt, steps):
    """Reference RK4 of u = e(t) - K x that evaluates f(x, u) at each of the
    four stages of every step, with e on the half-step grid; returns the
    (steps + 1, k, dim) states of the rows of X0 and e at the step times."""
    E = rl.ExcitationSignal(exc, K.shape[0]).sample(0.5 * dt * np.arange(2 * steps + 1))

    def g(x, e):
        return np.array([f(xi, e - K @ xi) for xi in x])

    X = [np.asarray(X0, dtype=float)]
    for k in range(steps):
        x, (e0, e1, e2) = X[-1], E[2 * k:2 * k + 3]
        k1 = g(x, e0)
        k2 = g(x + 0.5 * dt * k1, e1)
        k3 = g(x + 0.5 * dt * k2, e1)
        k4 = g(x + dt * k3, e2)
        X.append(x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
    return np.array(X), E[::2]


class TestSimulate:
    def test_zero_dynamics_constant(self):
        plant = AgentModel(np.zeros((1, 1)), np.zeros((1, 1)))
        traj = simulate(plant, np.zeros((1, 1)), None, [3.0], 1e-2, 1.0)
        np.testing.assert_allclose(traj.x, 3.0)

    def test_matches_exponential(self):
        plant = AgentModel(np.array([[-1.0]]), np.zeros((1, 1)))
        traj = simulate(plant, np.zeros((1, 1)), None, [1.0], 1e-3, 1.0)
        assert abs(traj.x[-1, 0] - np.exp(-1.0)) <= 1e-9

    def test_stabilized_double_integrator_decays(self):
        plant = AgentModel(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        K = np.array([[1.0, np.sqrt(3.0)]])
        x0 = np.array([1.0, -1.0])
        traj = simulate(plant, K, None, x0, 1e-3, 10.0)
        assert np.linalg.norm(traj.x[-1]) < 1e-2 * np.linalg.norm(x0)

    @pytest.mark.parametrize(
        "plant",
        [
            AgentModel(np.array([[5.0]]), np.zeros((1, 1))),  # norm passes 1e12
            lambda x, u: np.full_like(x, np.nan),
            lambda x, u: np.full_like(x, np.inf),
        ],
        ids=["matrix-growth", "callable-nan", "callable-inf"],
    )
    def test_blowup_raises(self, plant):
        with pytest.raises(NonFinite):
            simulate(plant, np.zeros((1, 1)), None, [1.0], 1e-2, 10.0)

    def test_callable_plant_matches_linear(self):
        A = np.array([[0.0, 1.0], [-2.0, -1.0]])
        B = np.array([[0.0], [1.0]])
        K = np.array([[0.5, 0.5]])
        exc = ExcitationConfig(seed=3)
        x0 = np.array([1.0, 0.0])
        lin = simulate(AgentModel(A, B), K, exc, x0, 1e-3, 1.0)
        gen = simulate(lambda x, u: A @ x + B @ u, K, exc, x0, 1e-3, 1.0)
        np.testing.assert_allclose(gen.x, lin.x, atol=1e-12)
        np.testing.assert_allclose(gen.u, lin.u, atol=1e-12)
        # inputs are the excitation at the step times minus the feedback
        E = rl.ExcitationSignal(exc, 1).sample(0.5e-3 * np.arange(2001))
        for traj in (lin, gen):
            np.testing.assert_array_equal(traj.u, E[::2] - traj.x @ K.T)

    def test_deterministic_given_seed(self):
        plant = AgentModel(np.array([[-0.5]]), np.eye(1))
        a = simulate(plant, np.eye(1), ExcitationConfig(seed=9), [1.0], 1e-3, 0.5)
        b = simulate(plant, np.eye(1), ExcitationConfig(seed=9), [1.0], 1e-3, 0.5)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.u, b.u)

    def test_one_component_excitation_forced_response(self):
        plant = AgentModel(np.array([[-1.0]]), np.eye(1))
        exc = ExcitationConfig(component_count=1, frequency_range=(0.5, 2.0),
                               amplitude=0.7, seed=4)
        traj = simulate(plant, np.zeros((1, 1)), exc, [0.0], 1e-3, 1.0)
        # forced response of x' = -x + a sin(w t + p) from x(0) = 0
        signal = rl.ExcitationSignal(exc, 1)
        w, p, a = signal.freqs[0, 0], signal.phases[0, 0], signal.amplitude
        t = traj.t
        expected = a / (1 + w * w) * (np.sin(w * t + p) - w * np.cos(w * t + p)
                                      - (np.sin(p) - w * np.cos(p)) * np.exp(-t))
        assert np.max(np.abs(traj.x[:, 0] - expected)) < 1e-9

    def test_rejects_callable_excitation(self):
        with pytest.raises(PreconditionFailed, match="ExcitationConfig"):
            simulate(SCALAR_PLANT, np.zeros((1, 1)), lambda t: [np.sin(t)], [0.0], 1e-3, 0.1)

    def test_rejects_bad_steps(self):
        with pytest.raises(PreconditionFailed):
            simulate(SCALAR_PLANT, np.eye(1), None, [1.0], -1e-3, 1.0)
        with pytest.raises(PreconditionFailed):
            simulate(SCALAR_PLANT, np.eye(1), None, [1.0], 1e-2, 1e-3)

    def test_step_map_is_rk4_stability_polynomial(self):
        # one unforced step of four clusters of one plant, started from the
        # unit states, stacks Phi e_c as rows: Phi' with
        # Phi = I + M + M^2/2 + M^3/6 + M^4/24, M = dt (A - BK)
        A, B = msd_pair()
        dt = 0.1
        M = dt * (A - B @ MSD_GAIN)
        M2 = M @ M
        M3 = M2 @ M
        Phi = np.eye(4) + M + M2 / 2 + M3 / 6 + M3 @ M / 24
        traj = simulate([AgentModel(A, B)] * 4, np.stack([MSD_GAIN] * 4), None,
                        np.eye(4), dt, dt)
        assert traj.x.shape == (2, 4, 4)
        assert np.max(np.abs(traj.x[1] - Phi.T)) <= 1e-14 * np.max(np.abs(Phi))

    def test_step_map_matches_stagewise_rk4(self, rng):
        # the step map of either plant kind against per-stage derivatives
        # on an excited 1000-step rollout of three clusters of one plant
        # with equal excitations
        A, B = msd_pair(1.05, 0.97, 1.02)
        exc = ExcitationConfig(seed=5)
        X0 = rng.standard_normal((3, 4))
        def black_box(x, u):
            return A @ x + B @ u

        X, E = stagewise_rk4(black_box, MSD_GAIN, exc, X0, 1e-3, 1000)
        U = E[:, None] - X @ MSD_GAIN.T
        for plant in (AgentModel(A, B), black_box):
            traj = simulate([plant] * 3, np.stack([MSD_GAIN] * 3), [exc] * 3, X0,
                            1e-3, 1.0)
            assert traj.x.shape == X.shape == (1001, 3, 4)
            np.testing.assert_allclose(traj.x, X, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(X)))
            np.testing.assert_allclose(traj.u, U, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(U)))

    def test_callable_evaluated_per_map_entry_not_per_step(self):
        # the step map costs 4 (dim + 3 m) evaluations and the linearity
        # check 3, whatever the horizon
        A = np.array([[0.0, 1.0], [-2.0, -1.0]])
        B = np.array([[0.0], [1.0]])
        calls = []

        def plant(x, u):
            calls.append(1)
            return A @ x + B @ u

        simulate(plant, np.array([[0.5, 0.5]]), ExcitationConfig(seed=3),
                 np.array([1.0, 0.0]), 1e-3, 1.0)
        assert 0 < len(calls) <= 4 * (2 + 3 * 1) + 3

    def test_rejects_affine_callable(self):
        # x' = -x + 1 from 0 ends at 1 - 1/e, which a step map cannot carry
        with pytest.raises(PreconditionFailed, match="not linear"):
            simulate(lambda x, u: -x + 1.0, [[0.0]], None, [0.0], 1e-3, 1.0)

    def test_rejects_nonlinear_callable(self):
        # x' = -x^3 from 2 ends at 2/3, the step map of its unit states would
        # give 0.736
        with pytest.raises(PreconditionFailed, match="not linear"):
            simulate(lambda x, u: -x**3 + u, [[0.0]], None, [2.0], 1e-3, 1.0)

    def test_blowup_step_same_on_both_paths(self):
        messages = []
        for plant in (AgentModel(5.0 * np.eye(2), np.zeros((2, 1))), lambda x, u: 5 * x):
            with pytest.raises(NonFinite) as info:
                simulate(plant, np.zeros((1, 2)), None, np.ones(2), 1e-2, 10.0)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "step" in messages[0]

    def test_wrong_length_plant_derivative(self):
        with pytest.raises(DimensionMismatch):
            simulate(lambda x, u: np.zeros(3), np.zeros((1, 2)), None,
                     [1.0, 0.0], 1e-3, 0.1)

    @pytest.mark.parametrize("kind", ["matrix", "callable"])
    def test_cluster_stack_matches_single_rollouts(self, kind, rng):
        # r heterogeneous clusters, each with its own gain, seed and start
        r = 3
        pairs = [msd_pair(*p) for p in 1.0 + rng.uniform(-0.05, 0.05, (r, 3))]
        plants = [AgentModel(A, B) if kind == "matrix"
                  else (lambda x, u, A=A, B=B: A @ x + B @ u) for A, B in pairs]
        gains = MSD_GAIN + 0.05 * rng.standard_normal((r, 2, 4))
        excs = [ExcitationConfig(seed=10 + c) for c in range(r)]
        X0 = rng.standard_normal((r, 4))
        stacked = simulate(plants, gains, excs, X0, 1e-3, 0.5)
        assert stacked.x.shape == (501, r, 4) and stacked.u.shape == (501, r, 2)
        for c in range(r):
            one = simulate(plants[c], gains[c], excs[c], X0[c], 1e-3, 0.5)
            assert np.max(np.abs(stacked.x[:, c] - one.x)) <= 1e-13 * np.max(np.abs(one.x))
            assert np.max(np.abs(stacked.u[:, c] - one.u)) <= 1e-13 * np.max(np.abs(one.u))
        again = simulate(plants, gains, excs, X0, 1e-3, 0.5)
        np.testing.assert_array_equal(again.x, stacked.x)
        np.testing.assert_array_equal(again.u, stacked.u)

    def test_cluster_stack_blowup_names_clusters(self):
        plants = [AgentModel(np.array([[a]]), np.eye(1)) for a in (-1.0, 5.0, 0.0, 6.0)]
        with pytest.raises(NonFinite, match="step") as info:
            simulate(plants, np.zeros((4, 1, 1)), None, np.ones((4, 1)), 1e-2, 10.0)
        assert info.value.clusters == (3,)  # the faster growth passes 1e12 first
        with pytest.raises(NonFinite) as info:
            simulate(plants[:2], np.zeros((2, 1, 1)), None, np.ones((2, 1)), 1e-2, 10.0)
        assert info.value.clusters == (1,)

    def test_cluster_stack_rejects_mismatched_inputs(self):
        plants = [SCALAR_PLANT, SCALAR_PLANT]
        with pytest.raises(DimensionMismatch):
            simulate(plants, np.ones((3, 1, 1)), None, np.ones((2, 1)), 1e-3, 0.1)
        with pytest.raises(DimensionMismatch):
            simulate(plants, np.ones((2, 1, 1)), None, np.ones((3, 1)), 1e-3, 0.1)
        with pytest.raises(DimensionMismatch):
            simulate(plants, np.ones((2, 1, 1)), None, np.ones((2, 3, 1)), 1e-3, 0.1)
        with pytest.raises(DimensionMismatch):
            simulate(SCALAR_PLANT, np.ones((1, 1)), None, np.ones((3, 1)), 1e-3, 0.1)
        with pytest.raises(PreconditionFailed):
            simulate([SCALAR_PLANT, lambda x, u: u], np.ones((2, 1, 1)), None,
                     np.ones((2, 1)), 1e-3, 0.1)

    def test_ragged_stacks_raise_dimension_mismatch(self):
        plants = [SCALAR_PLANT, SCALAR_PLANT]
        with pytest.raises(DimensionMismatch):
            simulate(plants, [[1.0], [1.0, 2.0]], None, [np.array([[1.0]])] * 2, 1e-2, 0.1)
        with pytest.raises(DimensionMismatch):
            simulate(plants, np.ones((2, 1, 1)), None, [[1.0], [1.0, 2.0]], 1e-2, 0.1)


class TestEmpiricalAbscissa:
    def test_detects_marginal_loop(self):
        # zero dynamics under zero gain neither grows nor decays
        assert empirical_abscissa(SCALAR_PLANT, np.zeros((1, 1))) >= 0

    def test_matches_eigenvalue(self):
        plant = AgentModel(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        K = np.array([[1.0, np.sqrt(3.0)]])
        est = empirical_abscissa(plant, K)
        true = matkit.spectral_abscissa(plant.A - plant.B @ K)
        assert abs(est - true) < 1e-3

    @pytest.mark.parametrize("kind", ["matrix", "callable"])
    def test_matches_per_column_rollouts(self, kind):
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -2.0, -0.5]])
        B = np.array([[0.0], [0.0], [1.0]])
        K = np.array([[0.3, 0.8, 0.4]])
        plant = AgentModel(A, B) if kind == "matrix" else (lambda x, u: A @ x + B @ u)
        cols = [simulate(plant, K, None, e, 1e-2, 1.0).x[-1] for e in np.eye(3)]
        rho = np.max(np.abs(np.linalg.eigvals(np.column_stack(cols))))
        assert abs(empirical_abscissa(plant, K) - np.log(rho)) <= 1e-12

    def test_cluster_stack_matches_single_probes(self):
        # the third loop blows up within the probe, the second is marginal
        plants = [AgentModel(np.array([[a]]), np.eye(1)) for a in (-1.0, 0.0, 40.0, 2.0)]
        gains = np.array([[[0.5]], [[0.0]], [[0.0]], [[3.0]]])
        stacked = empirical_abscissa(plants, gains)
        assert stacked.shape == (4,) and stacked[2] == np.inf
        for c in (0, 1, 3):
            assert abs(stacked[c] - empirical_abscissa(plants[c], gains[c])) <= 1e-12
        assert stacked[0] < 0 <= stacked[1] and stacked[3] < 0

    def test_ragged_gains_raise_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            empirical_abscissa([SCALAR_PLANT, SCALAR_PLANT],
                               [np.array([[1.0]]), np.array([[1.0, 2.0]])])

    def test_transient_peak_within_horizon_is_not_a_blowup(self):
        # x1' = -50 x1 + c x2, x2' = -50 x2 from x2 = 1 peaks near c/(50e),
        # past 1e12, and has decayed to ~3e-8 at 1 s: only the transition
        # matrix over the horizon is judged, and its abscissa is RK4's -50
        c = 1.4e14
        plant = AgentModel(np.array([[-50.0, c], [0.0, -50.0]]), np.zeros((2, 1)))
        est = empirical_abscissa(plant, np.zeros((1, 2)))
        rk4 = 1 - 0.5 + 0.5**2 / 2 - 0.5**3 / 6 + 0.5**4 / 24   # R(dt * -50)
        assert abs(est - 100 * np.log(rk4)) <= 1e-9

    def test_blowup_does_not_reprobe_survivors(self):
        # the second of three callable clusters is x' = 40x; each survivor
        # is evaluated exactly as often as in a probe of its own: 4 dim for
        # the step map and 3 for the linearity check
        A = np.array([[0.0, 1.0], [-2.0, -1.0]])
        B = np.array([[0.0], [1.0]])
        calls = [0, 0, 0]

        def counted(c, Ac):
            def plant(x, u):
                calls[c] += 1
                return Ac @ x + B @ u
            return plant

        plants = [counted(0, A), counted(1, 40.0 * np.eye(2)), counted(2, A - 0.5)]
        gains = np.array([[[0.5, 0.5]], [[0.0, 0.0]], [[1.0, 1.0]]])
        stacked = empirical_abscissa(plants, gains)
        assert stacked[1] == np.inf and stacked[0] < 0 and stacked[2] < 0
        assert calls == [4 * 2 + 3] * 3
        for c in (0, 2):
            calls[c] = 0
            assert abs(empirical_abscissa(plants[c], gains[c]) - stacked[c]) <= 1e-12
            assert calls[c] == 4 * 2 + 3


class TestCollectBatch:
    def test_zero_amplitude_is_deficient(self):
        problem = scalar_cluster(amplitude=0.0, windows=2)
        with pytest.raises(ExcitationDeficient):
            collect_batch(SCALAR_PLANT, problem, [1.0])

    def test_rich_excitation_flags_ok(self):
        problem = scalar_cluster(windows=4)
        batch = collect_batch(SCALAR_PLANT, problem, [1.0])
        assert batch.rank == problem.q

    def test_zero_initial_state_is_fine(self):
        problem = scalar_cluster(windows=4)
        batch = collect_batch(SCALAR_PLANT, problem, [0.0])
        assert batch.rank == problem.q

    def test_step_must_divide_window(self):
        problem = scalar_cluster()
        with pytest.raises(PreconditionFailed):
            collect_batch(SCALAR_PLANT, problem, [1.0], dt=3e-3)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan])
    def test_step_must_be_finite_and_positive(self, dt):
        with pytest.raises(PreconditionFailed, match="finite and positive"):
            collect_batch(SCALAR_PLANT, scalar_cluster(), [1.0], dt=dt)

    def test_simpson_needs_even_step_count(self):
        # 2e-2 divides the 0.1 s window into 5 steps
        with pytest.raises(PreconditionFailed, match="even step count"):
            collect_batch(SCALAR_PLANT, scalar_cluster(), [1.0], dt=2e-2)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_default_step_learns_riccati_gain(self, seed):
        # Simpson window integrals at the default step leave the learned gain
        # of the mass-spring-damper within 1e-4 of the Riccati gain
        A, B = msd_pair()
        problem = ClusterProblem(4, 2, np.eye(4), np.eye(2),
                                 initial_gain=derive_initial_gain(A, B, seed=11),
                                 excitation=ExcitationConfig(seed=seed),
                                 window_count=2 * unknown_count(4, 2))
        plant = AgentModel(A, B)
        batch = collect_batch(plant, problem, np.full(4, 0.5))
        K, _, _ = offpolicy_pi(batch, problem, plant=plant)
        _, K_are = matkit.solve_are(A, B, np.eye(4), np.eye(2))
        assert np.linalg.norm(K - K_are) <= 1e-4 * np.linalg.norm(K_are)

    def test_stacked_samples_equal_each_signal(self):
        # one table over the stack gives each cluster its own signal's
        # samples, bit for bit where the component counts agree; zero
        # padding of a shorter signal changes only the summation order
        signals = [rl.ExcitationSignal(ExcitationConfig(seed=4), 2), None,
                   rl.ExcitationSignal(ExcitationConfig(seed=5, amplitude=0.0), 2),
                   rl.ExcitationSignal(ExcitationConfig(seed=6, amplitude=0.3), 2),
                   rl.ExcitationSignal(ExcitationConfig(seed=7, component_count=5), 2)]
        times = 3.7 + 2.5e-3 * np.arange(41)
        samples = rl._sample_stack(rl._signal_stack(signals, 2, times), 0.0)
        assert samples.shape == (41, 5, 2)
        for i, signal in enumerate(signals[:4]):
            want = np.zeros((41, 2)) if signal is None else signal.sample(times)
            assert np.array_equal(samples[:, i], want)
        np.testing.assert_allclose(samples[:, 4], signals[4].sample(times), rtol=0, atol=1e-14)
        assert rl._signal_stack([None, None], 2, times) is None

    def test_table_samples_match_direct_sines(self):
        # angle addition from the offset table against a sum_j sin(w_j t + p_j)
        # at window starts t0 up to 1e4 s; the difference is round-off of
        # the angles, which grows with w_max t
        signals = [rl.ExcitationSignal(ExcitationConfig(seed=s), 2) for s in (3, 8)]
        signals += [None, rl.ExcitationSignal(ExcitationConfig(seed=9, amplitude=0.0), 2)]
        offsets = 2.5e-3 * np.arange(41)
        stack = rl._signal_stack(signals, 2, offsets)
        eps = np.finfo(float).eps
        for t0 in (0.0, 0.1, 3.7, 208.0, 1234.5, 1e4):
            samples = rl._sample_stack(stack, t0)
            assert samples.shape == (41, 4, 2)
            for i, signal in enumerate(signals[:2]):
                angles = (t0 + offsets)[:, None, None] * signal.freqs + signal.phases
                direct = signal.amplitude * np.sin(angles).sum(axis=2)
                c, w_max = signal.freqs.shape[1], signal.freqs.max()
                bound = 4 * eps * signal.amplitude * c * (1.0 + w_max * (t0 + offsets[-1]))
                assert np.max(np.abs(samples[:, i] - direct)) <= bound
            # no signal and a zero amplitude give exact zeros
            assert not samples[:, 2:].any()

    def test_deterministic(self):
        a = collect_batch(SCALAR_PLANT, scalar_cluster(), [1.0])
        b = collect_batch(SCALAR_PLANT, scalar_cluster(), [1.0])
        np.testing.assert_array_equal(a.ixx, b.ixx)
        np.testing.assert_array_equal(a.ixu, b.ixu)
        np.testing.assert_array_equal(a.x_end, b.x_end)

    def test_predicted_bytes_count_allocated_arrays(self):
        problem = scalar_cluster(windows=6)
        batch = collect_batch(SCALAR_PLANT, problem, [1.0])
        L, q = problem.window_count, problem.q
        allocated = sum(a.nbytes for a in (batch.x_start, batch.x_end, batch.ixx, batch.ixu))
        # plus the L x q rank matrix and L x q of the L x (d1 + q) compression input
        assert regression_bytes(1, 1, L) == allocated + 2 * 8 * L * q

    def test_oversized_problem_refused_before_allocating(self):
        def global_problem(N):
            nN, mN = 4 * N, 2 * N
            problem = ClusterProblem(
                state_dim=nN,
                input_dim=mN,
                Qblock=np.eye(nN),
                Rblock=np.eye(mN),
                initial_gain=np.zeros((mN, nN)),
                excitation=ExcitationConfig(seed=0),
                window_count=2 * unknown_count(nN, mN),
            )
            return problem, AgentModel(np.zeros((nN, nN)), np.zeros((nN, mN)))

        problem, plant = global_problem(100)
        x0 = np.zeros(problem.state_dim)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=r"predicted \d+ bytes"):
                collect_batch(plant, problem, x0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

        # N=10 (about 0.14 GiB predicted) passes the memory check and
        # reaches the deadline check, which refuses the passed deadline.
        problem, plant = global_problem(10)
        with pytest.raises(BudgetExceeded, match="budget passed after 0/"):
            collect_batch(plant, problem, np.zeros(problem.state_dim),
                          deadline=time.monotonic() - 1.0)

    def test_unreachable_deadline_refused(self, monkeypatch):
        # a clock that advances 1 ms per read: after 10 windows, 100,000
        # windows project to ~110 s against a 5 s deadline on any host
        ticks = itertools.count()
        monkeypatch.setattr(rl.time, "monotonic", lambda: 1e-3 * next(ticks))
        problem = scalar_cluster(windows=100_000)
        with pytest.raises(BudgetExceeded, match="projected completion"):
            collect_batch(SCALAR_PLANT, problem, [1.0], deadline=5.0)

    def test_cluster_stack_matches_single_batches(self, rng):
        r = 3
        pairs = [msd_pair(*p) for p in 1.0 + rng.uniform(-0.05, 0.05, (r, 3))]
        plants = [AgentModel(A, B) for A, B in pairs]
        problems = [
            ClusterProblem(4, 2, np.eye(4), np.eye(2), initial_gain=MSD_GAIN + 0.1 * c,
                           excitation=ExcitationConfig(seed=20 + c, amplitude=float(c > 0)),
                           window_count=2 * unknown_count(4, 2))
            for c in range(r)
        ]
        X0 = rng.standard_normal((r, 4))
        stacked = collect_batch(plants, problems, X0)
        assert isinstance(stacked[0], ExcitationDeficient)  # zero amplitude
        with pytest.raises(ExcitationDeficient):
            collect_batch(plants[0], problems[0], X0[0])
        for c in (1, 2):
            one = collect_batch(plants[c], problems[c], X0[c])
            assert stacked[c].rank == one.rank == problems[c].q
            for name in ("x_start", "x_end", "ixx", "ixu"):
                got, want = getattr(stacked[c], name), getattr(one, name)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_cluster_stack_drops_blown_up_clusters(self):
        # x' = 30x + u under gain 0 passes 1e12 within the first second
        plants = [SCALAR_PLANT, AgentModel(np.array([[30.0]]), np.eye(1)), SCALAR_PLANT]
        problems = [scalar_cluster(seed=s, k0=k0, windows=12)
                    for s, k0 in ((1, 1.5), (2, 0.0), (3, 2.0))]
        results = collect_batch(plants, problems, np.ones((3, 1)))
        assert isinstance(results[1], NonFinite) and "blew up" in str(results[1])
        for c in (0, 2):
            one = collect_batch(plants[c], problems[c], [1.0])
            np.testing.assert_allclose(results[c].ixx, one.ixx, rtol=1e-13)
            np.testing.assert_allclose(results[c].x_end, one.x_end, rtol=1e-13)

    def test_cluster_stack_drops_blown_up_callable_clusters(self):
        # the callable version: the maps are read once per collection, so
        # the survivors redo the window of the blow-up without evaluating
        # any plant again
        calls = [0, 0, 0]

        def counted(c, a):
            def plant(x, u):
                calls[c] += 1
                return a * x + u
            return plant

        plants = [counted(0, 0.0), counted(1, 30.0), counted(2, 0.0)]
        problems = [scalar_cluster(seed=s, k0=k0, windows=12)
                    for s, k0 in ((1, 1.5), (2, 0.0), (3, 2.0))]
        results = collect_batch(plants, problems, np.ones((3, 1)))
        assert isinstance(results[1], NonFinite) and "blew up" in str(results[1])
        assert calls == [4 * (1 + 3 * 1) + 3] * 3
        for c in (0, 2):
            one = collect_batch(plants[c], problems[c], [1.0])
            np.testing.assert_allclose(results[c].ixx, one.ixx, rtol=1e-13)
            np.testing.assert_allclose(results[c].x_end, one.x_end, rtol=1e-13)

    def test_callable_evaluated_once_per_collection(self):
        # the step maps cost 4 (n + 3 m) evaluations and the linearity check
        # 3 per cluster, whatever the window count
        A, B = msd_pair()
        calls = [0, 0]

        def counted(c):
            def plant(x, u):
                calls[c] += 1
                return A @ x + B @ u
            return plant

        problems = [ClusterProblem(4, 2, np.eye(4), np.eye(2), initial_gain=MSD_GAIN,
                                   excitation=ExcitationConfig(seed=20 + c),
                                   window_count=2 * unknown_count(4, 2))
                    for c in range(2)]
        assert problems[0].window_count >= 2
        batches = collect_batch([counted(0), counted(1)], problems, np.ones((2, 4)))
        assert all(b.rank == problems[0].q for b in batches)
        assert calls == [4 * (4 + 3 * 2) + 3] * 2

    def test_cluster_stack_admits_summed_bytes(self, monkeypatch):
        # physical memory that fits one problem but not two
        problem = scalar_cluster(windows=6)
        one = regression_bytes(1, 1, 6)
        pages = {"SC_PHYS_PAGES": 3 * one // 2, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(rl.os, "sysconf", pages.__getitem__)
        assert collect_batch(SCALAR_PLANT, problem, [1.0]).rank == problem.q
        with pytest.raises(BudgetExceeded, match=rf"predicted {2 * one} bytes"):
            collect_batch([SCALAR_PLANT] * 2, [problem, scalar_cluster(windows=6)],
                          np.ones((2, 1)))

    def test_cluster_stack_needs_equal_window_settings(self):
        with pytest.raises(DimensionMismatch):
            collect_batch([SCALAR_PLANT] * 2, [scalar_cluster(), scalar_cluster(windows=6)],
                          np.ones((2, 1)))

    @pytest.mark.parametrize("x0", [[[1.0], [1.0, 2.0]], np.ones((3, 1)), np.ones((1, 2))],
                             ids=["ragged", "wrong-count", "transposed"])
    def test_cluster_stack_rejects_bad_initial_states(self, x0):
        with pytest.raises(DimensionMismatch):
            collect_batch([SCALAR_PLANT] * 2, [scalar_cluster()] * 2, x0)


class TestOffPolicyPi:
    def test_scalar_converges_to_unit_gain(self):
        problem = scalar_cluster(k0=1.5)
        batch = collect_batch(SCALAR_PLANT, problem, [1.0])
        kappa, P, _ = offpolicy_pi(batch, problem, plant=SCALAR_PLANT)
        assert abs(kappa[0, 0] - 1.0) <= 1e-3
        assert abs(P[0, 0] - 1.0) <= 1e-3

    def test_eigen_weighted_cluster(self):
        # q = 3 makes the fixed point sqrt(3)
        problem = scalar_cluster(q=3.0, k0=2.0)
        batch = collect_batch(SCALAR_PLANT, problem, [1.0])
        kappa, _, _ = offpolicy_pi(batch, problem, plant=SCALAR_PLANT)
        assert abs(kappa[0, 0] - np.sqrt(3.0)) <= 1e-3

    def test_fixed_point_stays_put(self):
        problem = scalar_cluster(k0=1.0)
        batch = collect_batch(SCALAR_PLANT, problem, [1.0])
        kappa, _, history = offpolicy_pi(batch, problem, plant=SCALAR_PLANT)
        assert len(history) <= 2
        assert abs(kappa[0, 0] - 1.0) <= 1e-3

    def test_agreement_with_model_based_oracle(self, rng):
        # default data settings track the Riccati gain to 1e-2
        A = np.array([[0.0, 1.0], [-0.5, -0.2]])
        B = np.array([[0.0], [1.0]])
        Q = np.diag([2.0, 1.0])
        R = np.eye(1)
        _, K_star = matkit.solve_are(A, B, Q, R)
        problem = ClusterProblem(
            state_dim=2, input_dim=1, Qblock=Q, Rblock=R,
            initial_gain=K_star + 0.3, excitation=ExcitationConfig(seed=4),
            sample_interval=0.1, window_count=2 * 7,
        )
        plant = AgentModel(A, B)
        batch = collect_batch(plant, problem, [1.0, 0.0])
        kappa, _, _ = offpolicy_pi(batch, problem, plant=plant)
        assert np.linalg.norm(kappa - K_star) / np.linalg.norm(K_star) <= 1e-2

    def test_refined_settings_tighten_agreement(self):
        # dt=1e-4, windows of 0.05 s, L=4q brings the error under 1e-3
        A = np.array([[0.0, 1.0], [-0.5, -0.2]])
        B = np.array([[0.0], [1.0]])
        Q = np.diag([2.0, 1.0])
        R = np.eye(1)
        _, K_star = matkit.solve_are(A, B, Q, R)
        problem = ClusterProblem(
            state_dim=2, input_dim=1, Qblock=Q, Rblock=R,
            initial_gain=K_star + 0.3, excitation=ExcitationConfig(seed=4),
            sample_interval=0.05, window_count=4 * 7,
        )
        plant = AgentModel(A, B)
        batch = collect_batch(plant, problem, [1.0, 0.0], dt=1e-4)
        kappa, _, _ = offpolicy_pi(batch, problem, plant=plant)
        assert np.linalg.norm(kappa - K_star) / np.linalg.norm(K_star) <= 1e-3

    def test_iterates_track_kleinman_pi(self):
        # the data-driven iteration reproduces each model-based Kleinman
        # step (P_k, K_(k+1)) from the same K0
        from hlqr.lqr import kleinman_pi

        A = np.array([[0.0, 1.0], [-2.0, -1.0]])
        B = np.array([[0.0], [1.0]])
        Q, R, K0 = np.eye(2), np.eye(1), np.array([[2.0, 3.0]])
        problem = ClusterProblem(
            state_dim=2, input_dim=1, Qblock=Q, Rblock=R, initial_gain=K0,
            excitation=ExcitationConfig(seed=3), sample_interval=0.1,
            window_count=2 * unknown_count(2, 1),
        )
        plant = AgentModel(A, B)
        batch = collect_batch(plant, problem, [1.0, 0.0])
        _, _, history = offpolicy_pi(batch, problem, plant=plant)
        _, _, iterates = kleinman_pi(A, B, Q, R, K0)
        assert len(history) >= 3 and abs(len(history) - len(iterates)) <= 1
        for (P, K), (P_ref, K_ref) in zip(history, iterates):
            assert np.linalg.norm(P - P_ref) <= 1e-4 * np.linalg.norm(P_ref)
            assert np.linalg.norm(K - K_ref) <= 1e-4 * np.linalg.norm(K_ref)

    def test_batch_without_rank_flag_rejected(self):
        problem = scalar_cluster()
        batch = collect_batch(SCALAR_PLANT, problem, [1.0])
        batch.rank = problem.q - 1
        with pytest.raises(PreconditionFailed):
            offpolicy_pi(batch, problem, plant=SCALAR_PLANT)


def prescribed_regression(rng, L, sv):
    """An L x q regression matrix with singular values ``sv``."""
    U, _ = np.linalg.qr(rng.standard_normal((L, len(sv))))
    V, _ = np.linalg.qr(rng.standard_normal((len(sv), len(sv))))
    return (U * sv) @ V.T


def formation_n100():
    """The N=100 formation of the benchmark (seed 11): 100 identical
    size-1 clusters that share one batch."""
    from hlqr.bench import BenchConfig, build_example

    spec, model, _ = build_example(BenchConfig(N=100, seed=11))
    A, B = model.A_blocks[0], model.B_blocks[0]
    k_agent = derive_initial_gain(A, B, seed=11)
    plan = construct_T(spec.G1, spec.G2)
    config = HierarchicalConfig(
        excitation=ExcitationConfig(seed=11),
        initial_gains=[matkit.kron(np.eye(s), k_agent) for s in plan.cluster_sizes])
    return spec, plan, AgentModel(A, B), config


def count_calls(monkeypatch, name):
    """Record the shape of the first argument of every np.linalg.<name> call."""
    fn, calls = getattr(np.linalg, name), []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return fn(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def r_factors(aug):
    """The leading q rows of the R-factors of an (a, L, q + 1) stack of
    regressions [theta | rhs], as ``rl._solve_regressions`` takes them."""
    return np.linalg.qr(aug, mode="r")[:, :aug.shape[2] - 1]


class TestSolveRegressions:
    L, q = 36, 18

    def augmented(self, rng, conds):
        return np.stack([
            np.column_stack([prescribed_regression(rng, self.L, np.geomspace(1, 1 / c, self.q)),
                             rng.standard_normal(self.L)])
            for c in conds])

    def test_stack_matches_per_regression_lstsq(self, rng):
        aug = self.augmented(rng, [1.0, 1e2, 1e3])
        sol, errors = rl._solve_regressions(r_factors(aug))
        assert errors == [None] * 3
        for x, a in zip(sol, aug):
            ref = np.linalg.lstsq(a[:, :-1], a[:, -1], rcond=None)[0]
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_condition_guard(self, rng):
        aug = self.augmented(rng, [2e10, 5e9])
        sol, errors = rl._solve_regressions(r_factors(aug))
        assert isinstance(errors[0], RegressionSingular)
        assert re.fullmatch(r"regression condition 2\.000e\+10", str(errors[0]))
        assert errors[1] is None and np.isfinite(sol[1]).all()

    def test_non_finite_regression_fails_alone(self, rng):
        Rf = r_factors(self.augmented(rng, [1.0, 10.0, 1e2]))
        Rf[1, 3, -1] = np.nan
        sol, errors = rl._solve_regressions(Rf)
        assert isinstance(errors[1], np.linalg.LinAlgError)
        assert errors[0] is None and errors[2] is None
        # each regression gets the bits it gets alone
        for j in (0, 2):
            np.testing.assert_array_equal(sol[j], rl._solve_regressions(Rf[j:j + 1])[0][0])

    @pytest.mark.parametrize("q", [3, 18, 60])
    def test_guard_matches_singular_value_rule(self, rng, q):
        # the bound ||R||_F ||R^-1||_F decides most of the sweep; whatever
        # decides, the decisions and messages are those of the SVD rule
        L, limit = max(self.L, 2 * q), rl.REGRESSION_COND_LIMIT
        conds = np.concatenate([np.geomspace(1e8, 1e12, 17),
                                [0.4e10, 0.6e10, 0.9e10, 1.1e10, 2e10, q * 1e10]])
        aug = np.stack([
            np.column_stack([prescribed_regression(rng, L, np.geomspace(1, 1 / c, q)),
                             rng.standard_normal(L)])
            for c in conds])
        sol, errors = rl._solve_regressions(r_factors(aug))
        tri = np.linalg.qr(aug, mode="r")[:, :q, :q]
        sv = np.linalg.svd(tri, compute_uv=False)
        cond = sv[:, 0] / np.maximum(sv[:, -1], np.finfo(float).tiny)
        bound = np.linalg.norm(tri, axis=(1, 2)) * np.linalg.norm(np.linalg.inv(tri),
                                                                  axis=(1, 2))
        bad = (sv[:, -1] <= 0) | (cond > limit)
        # the sweep rejects, accepts by the bound, and accepts in the band
        # where only the singular values accept
        assert bad.any() and (bound <= limit / 2).any()
        assert (~bad & (bound > limit / 2)).any()
        for j in range(conds.size):
            if bad[j]:
                assert isinstance(errors[j], RegressionSingular)
                assert str(errors[j]) == f"regression condition {cond[j]:.3e}"
                assert not sol[j].any()
            else:
                assert errors[j] is None and np.isfinite(sol[j]).all()

    def test_zero_pivot_regression_fails_alone(self, rng):
        aug = self.augmented(rng, [1.0, 10.0, 1e2])
        aug[1, :, 4] = 0.0
        Rf = r_factors(aug)
        assert Rf[1, 4, 4] == 0.0
        sol, errors = rl._solve_regressions(Rf)
        assert isinstance(errors[1], RegressionSingular) and not sol[1].any()
        assert errors[0] is None and errors[2] is None
        for j in (0, 2):
            np.testing.assert_array_equal(sol[j], rl._solve_regressions(Rf[j:j + 1])[0][0])

    def test_formation_solve_makes_one_svd(self, monkeypatch):
        # the excitation-rank check of the one shared batch is the only SVD;
        # no regression of the N=100 formation needs the singular-value rule
        spec, plan, plant, config = formation_n100()
        calls = count_calls(monkeypatch, "svd")
        hierarchical_solve(spec, plan, plant, config)
        assert len(calls) == 1

    def test_formation_solve_factors_its_data_once(self, monkeypatch):
        # the 100 size-1 clusters share one batch of L windows; only its
        # compression sees L rows, every iteration factors q-row blocks
        spec, plan, plant, config = formation_n100()
        assert set(plan.cluster_sizes) == {1}
        L = 2 * unknown_count(spec.n, spec.m)
        calls = count_calls(monkeypatch, "qr")
        hierarchical_solve(spec, plan, plant, config)
        assert [shape[-2] for shape in calls].count(L) == 1
        assert max(shape[-2] for shape in calls) == L

    def test_cluster_over_the_condition_limit_fails_alone(self, monkeypatch):
        # (q, r) = 1e4 (1, 1) has the same gains but a far worse conditioned
        # regression; a limit between the two fails only that cluster, mid-run
        good, bad = scalar_cluster(), scalar_cluster(q=1e4, r=1e4)
        batch = collect_batch(SCALAR_PLANT, good, [1.0])
        solve, conds = rl._solve_regressions, []

        def measured(Rf):
            conds[-1].extend(np.linalg.cond(Rf[:, :, :-1]))
            return solve(Rf)

        monkeypatch.setattr(rl, "_solve_regressions", measured)
        solo = []
        for problem in (good, bad):
            conds.append([])
            solo.append(offpolicy_pi(batch, problem, plant=SCALAR_PLANT))
        limit = np.sqrt(conds[1][0] * max(conds[1]))
        assert max(conds[0]) < limit < max(conds[1]) and conds[1][0] < limit
        monkeypatch.setattr(rl, "REGRESSION_COND_LIMIT", limit)
        conds.append([])
        kept, failed = rl._lockstep_pi([batch] * 2, [good, bad], [SCALAR_PLANT] * 2)
        assert isinstance(failed, RegressionSingular)
        np.testing.assert_array_equal(kept[0], solo[0][0])
        assert len(kept[2]) == len(solo[0][2])


def count_batches(monkeypatch):
    """Count the batches hierarchical_solve collects: one per problem
    passed to collect_batch, whether alone or in a stacked call."""
    calls = []

    def counted(plant, problem, *args, **kwargs):
        calls.extend(problem if isinstance(problem, list) else [problem])
        return collect_batch(plant, problem, *args, **kwargs)

    monkeypatch.setattr(rl, "collect_batch", counted)
    return calls


def formation_spec(rng, N):
    G1 = 0.5 * np.eye(N) + random_laplacian(rng, N)
    return LqrSpec(N, 1, 1, G1, np.eye(N), np.eye(1), np.eye(1))


def two_agent_spec():
    G1 = np.array([[2.0, -1.0], [-1.0, 2.0]])
    return LqrSpec(2, 1, 1, G1, np.eye(2), np.eye(1), np.eye(1))


def five_scalar_clusters(rng):
    """G2 = I: five size-1 clusters of x' = u in one shape class, with
    distinct weights; cluster 2 starts from a far larger K0, so it
    collects its own batch and the others share batch 0."""
    spec = formation_spec(rng, 5)
    plan = construct_T(spec.G1, spec.G2)
    assert plan.r == 5
    gains = [np.array([[2.0]])] * 5
    gains[2] = np.array([[20.0]])
    return spec, plan, SCALAR_PLANT, HierarchicalConfig(initial_gains=gains)


def four_msd_clusters(rng):
    """G2 = I: four 4-state clusters of heterogeneous mass-spring-damper
    agents in one shape class, each collecting its own batch."""
    from hlqr.bench import derive_initial_gain

    pairs = [msd_pair(*p) for p in 1.0 + rng.uniform(-0.05, 0.05, (4, 3))]
    model = HeteroModel([A for A, _ in pairs], [B for _, B in pairs])
    spec = LqrSpec(4, 4, 2, 0.5 * np.eye(4) + random_laplacian(rng, 4),
                   np.eye(4), np.eye(4), np.eye(2))
    plan = construct_T(spec.G1, spec.G2)
    assert plan.r == 4
    k_agent = derive_initial_gain(*msd_pair(), seed=3)
    return spec, plan, model, HierarchicalConfig(initial_gains=[k_agent] * 4)


def same_stats(stats, reference) -> bool:
    """Equal cluster stats, wall time aside."""
    return [(s.index, s.size, s.iters, s.residual, s.batch_of) for s in stats] == [
        (s.index, s.size, s.iters, s.residual, s.batch_of) for s in reference]


def random_batch(rng, n, m, L):
    ixx = rng.standard_normal((L, n, n))
    return rl.TrajectoryBatch(rng.standard_normal((L, n)), rng.standard_normal((L, n)),
                              ixx + ixx.swapaxes(1, 2), rng.standard_normal((L, n, m)),
                              unknown_count(n, m))


def dense_regression(batch, K, R, Q):
    """The L x (q + 1) regression [theta | rhs] of one policy-iteration
    step, window by window, as ``offpolicy_pi`` documents it."""
    n = K.shape[1]
    iu, ju = np.triu_indices(n)
    Qbar = Q + K.T @ R @ K
    rows = []
    for xs, xe, ixx, ixu in zip(batch.x_start, batch.x_end, batch.ixx, batch.ixu):
        rows.append(np.concatenate([
            xe[iu] * xe[ju] - xs[iu] * xs[ju],
            (-2.0 * R @ (ixu.T + K @ ixx)).ravel(),
            [-np.sum(ixx * Qbar)],
        ]))
    return np.array(rows)


class TestCompressedRegression:
    n, m = 3, 2

    def problem(self, rng, batches, src):
        """The compressed batches, and per cluster its K, R, Q and the
        triangles of ``rl._regression_triangles``."""
        n, m, a = self.n, self.m, len(src)
        K = rng.standard_normal((a, m, n))
        R = np.stack([random_spd(rng, m) for _ in range(a)])
        Q = np.stack([random_spd(rng, n) for _ in range(a)])
        comp = rl._compress(*(np.stack([getattr(b, f) for b in batches])
                              for f in ("x_start", "x_end", "ixx", "ixu")))
        Qbar = matkit.symmetrize(Q + K.swapaxes(1, 2) @ R @ K)
        return K, R, Q, rl._regression_triangles(comp, np.array(src), K, R, Qbar)

    def test_triangles_are_the_dense_r_factors(self, rng):
        # batch 0 serves three clusters with their own weights and gains
        q = unknown_count(self.n, self.m)
        batches = [random_batch(rng, self.n, self.m, 2 * q) for _ in range(2)]
        src = [0, 1, 0, 0]
        K, R, Q, Rf = self.problem(rng, batches, src)
        assert Rf.shape == (len(src), q, q + 1)
        sol, errors = rl._solve_regressions(Rf)
        assert errors == [None] * len(src)
        for j, b in enumerate(src):
            aug = dense_regression(batches[b], K[j], R[j], Q[j])
            dense = np.linalg.qr(aug, mode="r")[:q]
            signs = np.sign(np.diagonal(dense)) * np.sign(np.diagonal(Rf[j]))
            assert np.linalg.norm(signs[:, None] * Rf[j] - dense) <= 1e-12 * np.linalg.norm(dense)
            ref = np.linalg.lstsq(aug[:, :-1], aug[:, -1], rcond=None)[0]
            assert np.linalg.norm(sol[j] - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_fewest_windows_give_the_dense_r_factor(self, rng):
        # L = q windows: [Phi | D] has fewer rows than columns
        q = unknown_count(self.n, self.m)
        batch = random_batch(rng, self.n, self.m, q)
        K, R, Q, Rf = self.problem(rng, [batch], [0])
        aug = dense_regression(batch, K[0], R[0], Q[0])
        sol, errors = rl._solve_regressions(Rf)
        ref = np.linalg.solve(aug[:, :-1], aug[:, -1])
        assert errors == [None]
        assert np.linalg.norm(sol[0] - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_bad_batches_fail_alone(self):
        problem = scalar_cluster()
        good = collect_batch(SCALAR_PLANT, problem, [1.0])
        # phi(x_end) - phi(x_start) = 0: a rank-deficient Phi
        flat = rl.TrajectoryBatch(good.x_start, good.x_start, good.ixx, good.ixu, good.rank)
        ixx = good.ixx.copy()
        ixx[2] = np.nan
        nan = rl.TrajectoryBatch(good.x_start, good.x_end, ixx, good.ixu, good.rank)
        solo = offpolicy_pi(good, problem, plant=SCALAR_PLANT)
        results = rl._lockstep_pi([good, flat, nan, good], [problem] * 4, [SCALAR_PLANT] * 4)
        assert isinstance(results[1], RegressionSingular)
        assert isinstance(results[2], np.linalg.LinAlgError)
        for kept in (results[0], results[3]):
            np.testing.assert_array_equal(kept[0], solo[0])
            np.testing.assert_array_equal(kept[1], solo[1])
            assert len(kept[2]) == len(solo[2])

    @pytest.mark.parametrize("q", [1, 3, 18, 60])
    def test_back_substitution_matches_solve(self, rng, q):
        T = np.linalg.qr(rng.standard_normal((4, 2 * q, q)), mode="r")
        B = rng.standard_normal((4, q, q + 1))
        X = np.empty_like(B)
        rl._back_substitute(T, B, X)
        ref = np.linalg.solve(T, B)
        for j in range(4):
            assert np.linalg.norm(X[j] - ref[j]) <= 1e-14 * np.linalg.norm(ref[j])
            alone = np.empty_like(B[j:j + 1])
            rl._back_substitute(T[j:j + 1], B[j:j + 1], alone)
            np.testing.assert_array_equal(alone[0], X[j])


class TestHierarchicalSolve:
    def test_two_agent_toy_matches_analytic_gain(self):
        spec = two_agent_spec()
        plan = construct_T(spec.G1, spec.G2)
        config = HierarchicalConfig(
            initial_gains=[np.array([[1.5]])] * plan.r,
        )
        K, stats = hierarchical_solve(spec, plan, SCALAR_PLANT, config)
        target = matkit.sqrtm_psd(spec.G1)
        assert np.linalg.norm(K - target) <= 1e-3
        assert len(stats) == plan.r
        assert all(s.iters >= 1 for s in stats)

    def test_deadline_passed_after_collection_refused(self, monkeypatch):
        # a clock that advances 1 ms per read: the shared 4-window collection
        # reads it 5 times (its start and once per window), all before the
        # deadline, and the first policy iteration reads it past the deadline
        ticks = itertools.count()
        monkeypatch.setattr(rl.time, "monotonic", lambda: 1e-3 * next(ticks))
        spec = two_agent_spec()
        plan = construct_T(spec.G1, spec.G2)
        config = HierarchicalConfig(initial_gains=[np.array([[1.5]])] * plan.r)
        with pytest.raises(ClusterFailure) as info:
            hierarchical_solve(spec, plan, SCALAR_PLANT, config, deadline=4.5e-3)
        assert info.value.cluster_index == 0 and info.value.partial_stats == []
        assert isinstance(info.value.cause, BudgetExceeded)
        assert "during iteration 0" in str(info.value.cause)

    def test_trivial_plan_equals_global_learning(self):
        # r = 1 reduces the hierarchy to one global off-policy solve
        G1 = np.array([[2.0, 1.0], [1.0, 2.0]])
        G2 = np.diag([1.0, 2.0])
        spec = LqrSpec(2, 1, 1, G1, G2, np.eye(1), np.eye(1))
        plan = construct_T(G1, G2)
        assert plan.r == 1
        calA, calB = np.zeros((2, 2)), np.eye(2)
        K0 = 1.5 * np.eye(2)
        config = HierarchicalConfig(initial_gains=[K0])
        # the agent model of the global pair (calA, calB) = I_2 (x) (0, 1)
        K, _ = hierarchical_solve(spec, plan, AgentModel(np.zeros((1, 1)), np.eye(1)), config)

        problem = ClusterProblem(
            state_dim=2, input_dim=2, Qblock=spec.Q, Rblock=spec.R,
            initial_gain=K0, excitation=config.excitation,
            sample_interval=0.1,
            window_count=2 * ClusterProblem(2, 2, spec.Q, spec.R).q,
        )
        plant = AgentModel(calA, calB)
        batch = collect_batch(plant, problem, np.full(2, 1.0 / np.sqrt(2)))
        K_direct, _, _ = offpolicy_pi(batch, problem, plant=plant)
        np.testing.assert_allclose(K, K_direct, atol=1e-12)

    def test_learner_never_touches_matrices(self):
        # a bare callable carries no A/B attributes to read
        spec = two_agent_spec()
        plan = construct_T(spec.G1, spec.G2)
        calls = {"n": 0}

        def black_box(x, u):
            calls["n"] += 1
            return u  # global plant: x' = u elementwise (A = 0, B = I)

        config = HierarchicalConfig(initial_gains=[np.array([[1.5]])] * plan.r)
        K, _ = hierarchical_solve(spec, plan, black_box, config)
        assert calls["n"] > 0
        assert np.linalg.norm(K - matkit.sqrtm_psd(spec.G1)) <= 1e-3

    def test_step_map_and_callable_plant_learn_same_gain(self, rng):
        # the hetero cluster plants' step maps come from their matrices,
        # those of the same dynamics as a black box from its evaluations
        from hlqr.bench import derive_initial_gain

        N = 4
        pairs = [msd_pair(*p) for p in 1.0 + rng.uniform(-0.05, 0.05, (N, 3))]
        model = HeteroModel([A for A, _ in pairs], [B for _, B in pairs])
        spec = LqrSpec(N, 4, 2, 0.5 * np.eye(N) + random_laplacian(rng, N),
                       np.eye(N), np.eye(4), np.eye(2))
        plan = construct_T(spec.G1, spec.G2)
        k_agent = derive_initial_gain(*msd_pair(), seed=3)
        config = HierarchicalConfig(
            initial_gains=[matkit.kron(np.eye(s), k_agent) for s in plan.cluster_sizes],
        )
        K_map, _ = hierarchical_solve(spec, plan, model, config)
        A, B = model.A, model.B
        K_box, _ = hierarchical_solve(spec, plan, lambda x, u: A @ x + B @ u, config)
        assert np.linalg.norm(K_box - K_map) <= 1e-9 * np.linalg.norm(K_map)

    def test_requires_initial_gains(self):
        spec = two_agent_spec()
        plan = construct_T(spec.G1, spec.G2)
        with pytest.raises(PreconditionFailed):
            hierarchical_solve(spec, plan, SCALAR_PLANT, HierarchicalConfig())
        # one initial gain per cluster
        with pytest.raises(DimensionMismatch):
            hierarchical_solve(spec, plan, SCALAR_PLANT,
                               HierarchicalConfig(initial_gains=[np.array([[1.5]])]))

    def test_singular_regression_tagged_with_cluster(self, monkeypatch):
        # a condition limit no regression meets fails every cluster at its
        # first iteration; the first one is reported, with exit code 3
        from hlqr.cli import exit_code_for

        spec = two_agent_spec()
        plan = construct_T(spec.G1, spec.G2)
        config = HierarchicalConfig(initial_gains=[np.array([[1.5]])] * plan.r)
        monkeypatch.setattr(rl, "REGRESSION_COND_LIMIT", 1.0)
        with pytest.raises(ClusterFailure) as info:
            hierarchical_solve(spec, plan, SCALAR_PLANT, config)
        assert info.value.cluster_index == 0
        assert isinstance(info.value.cause, RegressionSingular)
        assert info.value.partial_stats == []
        assert exit_code_for(info.value) == 3

    def test_unstable_initial_gain_tagged_with_cluster(self):
        spec = two_agent_spec()
        plan = construct_T(spec.G1, spec.G2)
        config = HierarchicalConfig(
            initial_gains=[np.array([[1.5]]), np.array([[0.0]])],
        )
        with pytest.raises(ClusterFailure) as info:
            hierarchical_solve(spec, plan, SCALAR_PLANT, config)
        assert info.value.cluster_index == 1
        assert isinstance(info.value.cause, K0NotStabilizing)
        assert len(info.value.partial_stats) == 1

    def test_deterministic(self):
        spec = two_agent_spec()
        plan = construct_T(spec.G1, spec.G2)
        config = HierarchicalConfig(initial_gains=[np.array([[1.5]])] * plan.r)
        K1, _ = hierarchical_solve(spec, plan, SCALAR_PLANT, config)
        K2, _ = hierarchical_solve(spec, plan, SCALAR_PLANT, config)
        np.testing.assert_array_equal(K1, K2)

    def test_cost_decomposes_over_clusters(self, rng):
        # global cost of the learned policy equals the sum of the
        # per-cluster quadratic values at the transformed initial state
        N = 3
        G1 = 0.5 * np.eye(N) + random_laplacian(rng, N)
        spec = LqrSpec(N, 1, 1, G1, np.eye(N), np.eye(1), np.eye(1))
        plan = construct_T(G1, np.eye(N))
        config = HierarchicalConfig(initial_gains=[np.array([[2.0]])] * plan.r)
        K, _ = hierarchical_solve(spec, plan, SCALAR_PLANT, config)

        # recover per-cluster values by rerunning the per-cluster solves
        from hlqr.decomp import kron_lift, project_problem

        problems = project_problem(spec, plan, excitation=config.excitation)
        values = []
        for i, p in enumerate(problems):
            p.initial_gain = config.initial_gains[i]
            batch = collect_batch(SCALAR_PLANT, p, np.ones(1), 1e-3)
            _, P, _ = offpolicy_pi(batch, p, plant=SCALAR_PLANT)
            values.append(P)
        calA, calB = np.zeros((N, N)), np.eye(N)
        x0 = rng.standard_normal(N)
        J = evaluate_cost(calA - calB @ K, spec.Q + K.T @ spec.R @ K, x0)
        xi0 = kron_lift(plan.T, 1) @ x0
        J_sum = sum(float(xi0[i] * values[i][0, 0] * xi0[i]) for i in range(N))
        assert abs(J - J_sum) <= 1e-3 * abs(J)

    def test_result_serialization_keys(self):
        spec = two_agent_spec()
        plan = construct_T(spec.G1, spec.G2)
        config = HierarchicalConfig(initial_gains=[np.array([[1.5]])] * plan.r)
        K, stats = hierarchical_solve(spec, plan, SCALAR_PLANT, config)
        obj = rl.result_to_json(K, stats, 12.5)
        assert set(obj) == {"K", "perCluster", "totalWallMs"}
        assert set(obj["perCluster"][0]) == {"size", "iters", "residual", "wallMs", "batchOf"}

    def test_hetero_plant_uses_block_diagonal_slice(self, rng):
        # the cluster plants of a heterogeneous plant, from its agent blocks or
        # as a black box, are the diagonal blocks of the dense transformed dynamics
        from hlqr.decomp import kron_lift

        N, n, m = 3, 2, 1
        G1 = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
        spec = LqrSpec(N, n, m, G1, np.diag([1.0, 2.0, 3.0]), np.eye(n), np.eye(m))
        plan = construct_T(spec.G1, spec.G2)
        assert max(plan.cluster_sizes) >= 2
        model = HeteroModel([rng.standard_normal((n, n)) for _ in range(N)],
                            [rng.standard_normal((n, m)) for _ in range(N)])
        Tn, Tm = kron_lift(plan.T, n), kron_lift(plan.T, m)
        Axi, Bxi = Tn @ model.A @ Tn.T, Tn @ model.B @ Tm.T
        plants = rl.cluster_plants(model, plan, spec)
        closures = rl.cluster_plants(lambda x, u: model.A @ x + model.B @ u, plan, spec)
        for plant, f, off, s in zip(plants, closures, plan.offsets(), plan.cluster_sizes):
            rs, cs = slice(n * off, n * (off + s)), slice(m * off, m * (off + s))
            scale = np.linalg.norm(Axi) + np.linalg.norm(Bxi)
            # a linear closure's matrices are its values on unit states and inputs
            Af = np.column_stack([f(e, np.zeros(m * s)) for e in np.eye(n * s)])
            Bf = np.column_stack([f(np.zeros(n * s), e) for e in np.eye(m * s)])
            for got_A, got_B in ((plant.A, plant.B), (Af, Bf)):
                assert np.linalg.norm(got_A - Axi[rs, rs]) <= 1e-14 * scale
                assert np.linalg.norm(got_B - Bxi[rs, cs]) <= 1e-14 * scale

    @pytest.mark.parametrize("plant", [
        HeteroModel([np.zeros((2, 2))] * 2, [np.ones((2, 1))] * 2),  # N = 2, not 3
        HeteroModel([np.zeros((1, 1))] * 3, [np.ones((1, 1))] * 3),  # n = 1, not 2
        HeteroModel([np.zeros((2, 2))] * 3, [np.ones((2, 2))] * 3),  # m = 2, not 1
        AgentModel(np.zeros((6, 6)), np.ones((6, 3))),  # the dense global pair
    ], ids=["agent-count", "state-dim", "input-dim", "dense-global"])
    def test_cluster_plants_reject_models_off_the_spec(self, plant):
        # agent blocks must match the spec's (N, n, m); an agent model is one
        # agent, so coupled or global dynamics go in as a callable
        spec = LqrSpec(3, 2, 1, np.diag([1.0, 2.0, 3.0]), np.eye(3), np.eye(2), np.eye(1))
        plan = construct_T(spec.G1, spec.G2)
        with pytest.raises(DimensionMismatch):
            rl.cluster_plants(plant, plan, spec)

    def test_callable_clusters_hold_rows_of_T(self):
        # the closures of a black-box plant hold their clusters' rows of T,
        # under a tenth of the dense state and input lifts T (x) I_n, T (x) I_m
        from hlqr.bench import BenchConfig, build_example

        N = 60
        spec, model, _ = build_example(BenchConfig(N=N, seed=11))
        plan = construct_T(spec.G1, spec.G2)
        assert plan.r == N
        A, B = model.A, model.B
        lift_bytes = 8 * ((spec.n * N) ** 2 + (spec.m * N) ** 2)
        tracemalloc.start()
        try:
            plants = rl.cluster_plants(lambda x, u: A @ x + B @ u, plan, spec)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(plants) == N
        assert retained <= lift_bytes / 10

    def test_callable_clusters_of_one_shape_collect_together(self, rng, monkeypatch):
        # G2 = I: four size-1 clusters of a black-box plant x' = u form one
        # shape class, probed and collected in one stacked call each
        N = 4
        spec = formation_spec(rng, N)
        plan = construct_T(spec.G1, spec.G2)
        assert plan.r == N
        config = HierarchicalConfig(initial_gains=[np.array([[2.0]])] * plan.r)
        stacks = []

        def counted(plant, problem, *args, **kwargs):
            stacks.append(len(problem))
            return collect_batch(plant, problem, *args, **kwargs)

        monkeypatch.setattr(rl, "collect_batch", counted)
        K_box, stats = hierarchical_solve(spec, plan, lambda x, u: u, config)
        assert stacks == [N]
        assert [s.batch_of for s in stats] == list(range(N))
        model = HeteroModel([np.zeros((1, 1))] * N, [np.eye(1)] * N)
        K_map, _ = hierarchical_solve(spec, plan, model, config)
        assert np.linalg.norm(K_box - K_map) <= 1e-9 * np.linalg.norm(K_map)

    def test_identical_clusters_share_one_batch(self, rng, monkeypatch):
        # G2 = I: five size-1 clusters with one plant object and equal K0
        N = 5
        spec = formation_spec(rng, N)
        plan = construct_T(spec.G1, spec.G2)
        assert plan.r == N
        config = HierarchicalConfig(initial_gains=[np.array([[2.0]])] * plan.r)
        calls = count_batches(monkeypatch)
        K, stats = hierarchical_solve(spec, plan, SCALAR_PLANT, config)
        assert len(calls) == 1
        assert [s.batch_of for s in stats] == [0] * N

        # per-cluster learning, each cluster on its own batch and seed
        from hlqr.decomp import project_problem
        from hlqr.lqr import assemble_gain

        gains = []
        for p in project_problem(spec, plan, excitation=config.excitation):
            p.initial_gain = np.array([[2.0]])
            batch = collect_batch(SCALAR_PLANT, p, np.ones(1), 1e-3)
            gains.append(offpolicy_pi(batch, p, plant=SCALAR_PLANT)[0])
        K_each = assemble_gain(plan, gains, 1, 1)
        assert np.linalg.norm(K - K_each) <= 1e-2 * np.linalg.norm(K_each)
        calA, calB = np.zeros((N, N)), np.eye(N)
        x0 = rng.standard_normal(N)
        J = evaluate_cost(calA - calB @ K, spec.Q + K.T @ spec.R @ K, x0)
        J_each = evaluate_cost(calA - calB @ K_each, spec.Q + K_each.T @ spec.R @ K_each, x0)
        assert abs(J - J_each) <= 1e-3 * abs(J_each)

    def test_hetero_slices_never_group(self, rng, monkeypatch):
        N = 4
        spec = formation_spec(rng, N)
        plan = construct_T(spec.G1, spec.G2)
        model = HeteroModel([np.zeros((1, 1))] * N, [np.eye(1)] * N)
        config = HierarchicalConfig(initial_gains=[np.array([[2.0]])] * plan.r)
        calls = count_batches(monkeypatch)
        _, stats = hierarchical_solve(spec, plan, model, config)
        assert len(calls) == plan.r
        assert [s.batch_of for s in stats] == list(range(plan.r))

    def test_unequal_initial_gains_not_grouped(self, monkeypatch):
        spec = two_agent_spec()
        plan = construct_T(spec.G1, spec.G2)
        config = HierarchicalConfig(
            initial_gains=[np.array([[1.5]]), np.array([[1.5 + 1e-12]])],
        )
        calls = count_batches(monkeypatch)
        _, stats = hierarchical_solve(spec, plan, SCALAR_PLANT, config)
        assert len(calls) == 2
        assert [s.batch_of for s in stats] == [0, 1]

    def test_failed_shared_probe_names_first_cluster(self, rng):
        # zero gain on x' = u is marginal: clusters 1 and 2 share one K0
        # probe, which fails at cluster 1 after cluster 0 has finished
        spec = formation_spec(rng, 3)
        plan = construct_T(spec.G1, spec.G2)
        config = HierarchicalConfig(
            initial_gains=[np.array([[1.5]]), np.array([[0.0]]), np.array([[0.0]])],
        )
        with pytest.raises(ClusterFailure) as info:
            hierarchical_solve(spec, plan, SCALAR_PLANT, config)
        assert info.value.cluster_index == 1
        assert isinstance(info.value.cause, K0NotStabilizing)
        assert [st.index for st in info.value.partial_stats] == [0]

    def test_failed_shared_batch_names_first_cluster(self, monkeypatch):
        spec = two_agent_spec()
        plan = construct_T(spec.G1, spec.G2)
        config = HierarchicalConfig(
            excitation=ExcitationConfig(amplitude=0.0),
            initial_gains=[np.array([[1.5]])] * plan.r,
        )
        calls = count_batches(monkeypatch)
        with pytest.raises(ClusterFailure) as info:
            hierarchical_solve(spec, plan, SCALAR_PLANT, config)
        assert info.value.cluster_index == 0
        assert isinstance(info.value.cause, ExcitationDeficient)
        assert len(calls) == 1

    @pytest.mark.parametrize("make", [five_scalar_clusters, four_msd_clusters],
                             ids=["scalar-shared-batch", "msd-own-batches"])
    def test_lockstep_class_learns_solo_gains(self, rng, monkeypatch, make):
        # one shape class whose clusters converge at different iterations,
        # so the active set shrinks mid-run
        spec, plan, plant, config = make(rng)
        batches, gains = [], []

        def recorded(plant, problem, *args, **kwargs):
            results = collect_batch(plant, problem, *args, **kwargs)
            batches.extend(results)
            return results

        def captured(plan, cluster_gains, *args):
            gains.extend(cluster_gains)
            return assemble_gain(plan, cluster_gains, *args)

        monkeypatch.setattr(rl, "collect_batch", recorded)
        monkeypatch.setattr(rl, "assemble_gain", captured)
        _, stats = hierarchical_solve(spec, plan, plant, config)
        assert len({s.iters for s in stats}) > 1
        leads = [s.index for s in stats if s.batch_of == s.index]
        batch_of_lead = dict(zip(leads, batches))
        problems = project_problem(spec, plan, excitation=config.excitation)
        plants = rl.cluster_plants(plant, plan, spec)
        for s, problem, K0, gain in zip(stats, problems, config.initial_gains, gains):
            problem.initial_gain = K0
            K, _, history = offpolicy_pi(batch_of_lead[s.batch_of], problem,
                                         plant=plants[s.index])
            np.testing.assert_array_equal(gain, K)
            assert s.iters == len(history)

    def test_lockstep_isolates_a_cluster_over_its_iteration_limit(self, rng, monkeypatch):
        spec, plan, plant, config = five_scalar_clusters(rng)
        _, clean = hierarchical_solve(spec, plan, plant, config)
        iters = [s.iters for s in clean]
        j = int(np.argmax(iters))
        assert j > 0 and max(iters[:j]) < iters[j]
        monkeypatch.setattr(rl, "PI_MAX_ITER", iters[j] - 1)
        with pytest.raises(ClusterFailure) as info:
            hierarchical_solve(spec, plan, plant, config)
        assert info.value.cluster_index == j
        assert isinstance(info.value.cause, MaxIterExceeded)
        assert same_stats(info.value.partial_stats, clean[:j])

    def test_lockstep_isolates_a_cluster_failing_the_final_probe(self, rng, monkeypatch):
        spec, plan, plant, config = five_scalar_clusters(rng)
        _, clean = hierarchical_solve(spec, plan, plant, config)
        probe, calls, j = rl.empirical_abscissa, [], 3

        def final_probe_fails_j(plants, gains):
            out = probe(plants, gains)
            calls.append(len(plants))
            if len(calls) == 2:   # the final probe, over clusters 0..4 in order
                out[j] = np.inf
            return out

        monkeypatch.setattr(rl, "empirical_abscissa", final_probe_fails_j)
        with pytest.raises(ClusterFailure) as info:
            hierarchical_solve(spec, plan, plant, config)
        assert calls == [2, 5]
        assert info.value.cluster_index == j
        assert isinstance(info.value.cause, NotStabilizing)
        assert same_stats(info.value.partial_stats, clean[:j])

    def test_one_class_makes_two_probes(self, rng, monkeypatch):
        # the stacked K0 probe and the stacked final probe, for any r
        spec, plan, plant, config = five_scalar_clusters(rng)
        probe, calls = rl.empirical_abscissa, []

        def counted(plants, gains):
            calls.append(plants)
            return probe(plants, gains)

        monkeypatch.setattr(rl, "empirical_abscissa", counted)
        hierarchical_solve(spec, plan, plant, config)
        assert len(calls) == 2

    @pytest.mark.parametrize("k_bad", [0.0, -40.0], ids=["marginal", "blow-up"])
    def test_failures_surface_in_index_order(self, rng, monkeypatch, k_bad):
        # one shape class of four hetero slices: cluster 2's K0 fails the
        # stacked probe, cluster 3 (zero excitation) fails the stacked
        # collection; cluster 2 is reported, after clusters 0 and 1
        from dataclasses import replace

        N = 4
        spec = formation_spec(rng, N)
        plan = construct_T(spec.G1, spec.G2)
        assert plan.r == N
        model = HeteroModel([np.zeros((1, 1))] * N, [np.eye(1)] * N)
        project = rl.project_problem

        def silent_cluster_3(*args, **kwargs):
            problems = project(*args, **kwargs)
            problems[3].excitation = replace(problems[3].excitation, amplitude=0.0)
            return problems

        monkeypatch.setattr(rl, "project_problem", silent_cluster_3)
        gains = [np.array([[2.0]])] * N
        with pytest.raises(ClusterFailure) as info:
            hierarchical_solve(spec, plan, model, HierarchicalConfig(
                initial_gains=gains[:2] + [np.array([[k_bad]])] + gains[3:]))
        assert info.value.cluster_index == 2
        assert isinstance(info.value.cause, K0NotStabilizing)
        assert [st.index for st in info.value.partial_stats] == [0, 1]

        with pytest.raises(ClusterFailure) as info:
            hierarchical_solve(spec, plan, model, HierarchicalConfig(initial_gains=gains))
        assert info.value.cluster_index == 3
        assert isinstance(info.value.cause, ExcitationDeficient)
        assert [st.index for st in info.value.partial_stats] == [0, 1, 2]
