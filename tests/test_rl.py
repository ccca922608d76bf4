import time
import tracemalloc

import numpy as np
import pytest

from hlqr import matkit, rl
from hlqr.decomp import (
    ClusterProblem,
    ExcitationConfig,
    LqrSpec,
    construct_T,
    regression_bytes,
    unknown_count,
)
from hlqr.errors import (
    BudgetExceeded,
    ClusterFailure,
    ExcitationDeficient,
    K0NotStabilizing,
    NonFinite,
    PreconditionFailed,
)
from hlqr.lqr import AgentModel, evaluate_cost
from hlqr.rl import (
    HierarchicalConfig,
    collect_batch,
    empirical_abscissa,
    hierarchical_solve,
    offpolicy_pi,
    simulate,
)
from conftest import random_laplacian


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
    @pytest.mark.filterwarnings("error::RuntimeWarning")
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

    def test_custom_excitation_callable(self):
        plant = AgentModel(np.array([[-1.0]]), np.eye(1))
        traj = simulate(plant, np.zeros((1, 1)), lambda t: [np.sin(t)],
                        [0.0], 1e-3, 1.0)
        # forced response of x' = -x + sin(t)
        t = traj.t
        expected = 0.5 * (np.exp(-t) + np.sin(t) - np.cos(t))
        assert np.max(np.abs(traj.x[:, 0] - expected)) < 1e-9

    def test_rejects_bad_steps(self):
        with pytest.raises(PreconditionFailed):
            simulate(SCALAR_PLANT, np.eye(1), None, [1.0], -1e-3, 1.0)
        with pytest.raises(PreconditionFailed):
            simulate(SCALAR_PLANT, np.eye(1), None, [1.0], 1e-2, 1e-3)


class TestEmpiricalAbscissa:
    def test_detects_marginal_loop(self):
        # zero dynamics under zero gain neither grows nor decays
        assert empirical_abscissa(SCALAR_PLANT, np.zeros((1, 1)), 1) >= 0

    def test_matches_eigenvalue(self):
        plant = AgentModel(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        K = np.array([[1.0, np.sqrt(3.0)]])
        est = empirical_abscissa(plant, K, 2)
        true = matkit.spectral_abscissa(plant.A - plant.B @ K)
        assert abs(est - true) < 1e-3


class TestCollectBatch:
    def test_zero_amplitude_is_deficient(self):
        problem = scalar_cluster(amplitude=0.0, windows=2)
        with pytest.raises(ExcitationDeficient):
            collect_batch(SCALAR_PLANT, problem, [1.0])

    def test_rich_excitation_flags_ok(self):
        problem = scalar_cluster(windows=4)
        batch = collect_batch(SCALAR_PLANT, problem, [1.0])
        assert batch.rank_ok and batch.rank == problem.q

    def test_zero_initial_state_is_fine(self):
        problem = scalar_cluster(windows=4)
        batch = collect_batch(SCALAR_PLANT, problem, [0.0])
        assert batch.rank_ok

    def test_step_must_divide_window(self):
        problem = scalar_cluster()
        with pytest.raises(PreconditionFailed):
            collect_batch(SCALAR_PLANT, problem, [1.0], dt=3e-3)

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
        # plus the L x q rank matrix and the L x q regression matrix
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

    def test_unreachable_deadline_refused(self):
        problem = scalar_cluster(windows=100_000)
        with pytest.raises(BudgetExceeded, match="projected completion"):
            collect_batch(SCALAR_PLANT, problem, [1.0], deadline=time.monotonic() + 5.0)


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

    def test_batch_without_rank_flag_rejected(self):
        problem = scalar_cluster()
        batch = collect_batch(SCALAR_PLANT, problem, [1.0])
        batch.rank_ok = False
        with pytest.raises(PreconditionFailed):
            offpolicy_pi(batch, problem)


def two_agent_spec():
    G1 = np.array([[2.0, -1.0], [-1.0, 2.0]])
    return LqrSpec(2, 1, 1, G1, np.eye(2), np.eye(1), np.eye(1))


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
        K, _ = hierarchical_solve(spec, plan, AgentModel(calA, calB), config)

        problem = ClusterProblem(
            state_dim=2, input_dim=2, Qblock=spec.Q, Rblock=spec.R,
            initial_gain=K0, excitation=config.excitation,
            sample_interval=0.1,
            window_count=2 * ClusterProblem(2, 2, spec.Q, spec.R).q,
        )
        plant = AgentModel(calA, calB)
        batch = collect_batch(plant, problem, np.full(2, 1.0 / np.sqrt(2)), 1e-3)
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

    def test_requires_initial_gains(self):
        spec = two_agent_spec()
        plan = construct_T(spec.G1, spec.G2)
        with pytest.raises(PreconditionFailed):
            hierarchical_solve(spec, plan, SCALAR_PLANT, HierarchicalConfig())

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
            batch = collect_batch(AgentModel(np.zeros((1, 1)), np.eye(1)), p,
                                  np.ones(1), 1e-3)
            _, P, _ = offpolicy_pi(batch, p)
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
        assert set(obj["perCluster"][0]) == {"size", "iters", "residual", "wallMs"}

    def test_hetero_plant_uses_block_diagonal_slice(self, rng):
        # the cluster plants for a global plant are the diagonal blocks of
        # the transformed dynamics
        from hlqr.decomp import kron_lift
        from hlqr.robust import HeteroModel

        spec = two_agent_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = HeteroModel([np.array([[-1.0]]), np.array([[-0.6]])],
                            [np.eye(1), np.eye(1)])
        plants = rl.cluster_plants(model, plan, spec)
        Tn = kron_lift(plan.T, 1)
        Axi = Tn @ model.A @ Tn.T
        for i, plant in enumerate(plants):
            np.testing.assert_allclose(plant.A, Axi[i : i + 1, i : i + 1], atol=1e-14)
