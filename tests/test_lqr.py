import numpy as np
import pytest

from hlqr import lqr, matkit
from hlqr.decomp import DecompositionPlan, LqrSpec, construct_T, project_problem
from hlqr.errors import DimensionMismatch, K0NotStabilizing, MaxIterExceeded, PreconditionFailed
from hlqr.lqr import (
    AgentModel,
    assemble_gain,
    evaluate_cost,
    hierarchical_model_based,
    kleinman_pi,
)
from conftest import random_controllable, random_laplacian, random_spd


class TestRankTests:
    def test_double_integrator_controllable(self):
        assert matkit.ctrb_rank([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]]) == 2

    def test_unreachable_mode(self):
        assert matkit.ctrb_rank(np.eye(2), [[1.0], [0.0]]) < 2

    def test_full_input(self):
        assert matkit.ctrb_rank(np.zeros((2, 2)), np.eye(2)) == 2

    def test_full_rank_output(self, rng):
        Q = random_spd(rng, 3)
        C = matkit.sqrtm_psd(Q)
        for _ in range(5):
            assert matkit.obsv_rank(C, rng.standard_normal((3, 3))) == 3

    def test_position_measurement(self):
        assert matkit.obsv_rank([[1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]) == 2

    def test_singular_g1_breaks_observability(self, rng):
        # zero eigenvalue of G1 hides a direction from the cost output
        N, n = 3, 2
        V, _ = np.linalg.qr(rng.standard_normal((N, N)))
        G1 = V @ np.diag([0.0, 1.0, 2.0]) @ V.T
        Q0 = random_spd(rng, n)
        C = matkit.sqrtm_psd(matkit.kron(G1, Q0))
        A = matkit.kron(np.eye(N), rng.standard_normal((n, n)))
        assert matkit.obsv_rank(C, A) < N * n

    def test_structured_observability_tracks_g1_positivity(self, rng):
        # observability of the structured cost output tracks min eig(G1) > 0
        for _ in range(100):
            N = int(rng.integers(2, 5))
            n = int(rng.integers(1, 3))
            singular = rng.random() < 0.5
            V, _ = np.linalg.qr(rng.standard_normal((N, N)))
            eigs = 0.2 + rng.random(N)
            if singular:
                eigs[0] = 0.0
            G1 = V @ np.diag(eigs) @ V.T
            Q0 = random_spd(rng, n)
            A = rng.standard_normal((n, n))
            C = matkit.sqrtm_psd(matkit.kron(G1, Q0))
            obs = matkit.obsv_rank(C, matkit.kron(np.eye(N), A)) == N * n
            assert obs == (not singular)

    def test_cluster_problems_inherit_solvability(self, rng):
        # controllable agent + PD G1 makes every cluster controllable and
        # its weighted cost output observable
        N, n, m = 4, 2, 1
        A, B = random_controllable(rng, n, m)
        G1 = 0.5 * np.eye(N) + random_laplacian(rng, N)
        spec = LqrSpec(N, n, m, G1, np.eye(N), random_spd(rng, n), np.eye(m))
        plan = construct_T(G1, np.eye(N))
        problems = project_problem(spec, plan)
        for p, size in zip(problems, plan.cluster_sizes):
            Ai = matkit.kron(np.eye(size), A)
            Bi = matkit.kron(np.eye(size), B)
            assert matkit.ctrb_rank(Ai, Bi) == n * size
            assert matkit.obsv_rank(matkit.sqrtm_psd(p.Qblock), Ai) == n * size


class TestKleinman:
    def test_scalar_fixed_point(self):
        P, K, iters = kleinman_pi([[0.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        np.testing.assert_allclose(P, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(K, [[1.0]], atol=1e-12)
        assert len(iters) <= 2

    def test_double_integrator(self, monkeypatch):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        P, K, iters = kleinman_pi(A, B, np.eye(2), np.eye(1), [[1.0, 2.0]])
        np.testing.assert_allclose(K, [[1.0, np.sqrt(3.0)]], atol=1e-8)
        assert len(iters) <= 10
        # one step cannot show convergence
        monkeypatch.setattr(lqr, "KLEINMAN_MAX_ITER", 1)
        with pytest.raises(MaxIterExceeded):
            kleinman_pi(A, B, np.eye(2), np.eye(1), [[1.0, 2.0]])

    def test_rejects_marginal_initial_gain(self):
        with pytest.raises(K0NotStabilizing):
            kleinman_pi([[0.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]])

    def test_monotone_value_iterates(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            A, B = random_controllable(rng, n, 1)
            Q = random_spd(rng, n)
            R = random_spd(rng, 1)
            _, K_opt = matkit.solve_are(A, B, Q, R)
            K0 = K_opt + 0.2 * rng.standard_normal(K_opt.shape)
            if matkit.spectral_abscissa(A - B @ K0) >= 0:
                continue
            P, K, iters = kleinman_pi(A, B, Q, R, K0)
            for (P1, _), (P2, _) in zip(iters, iters[1:]):
                gap = np.min(np.linalg.eigvalsh(P1 - P2))
                assert gap >= -1e-9 * np.linalg.norm(P1)


class TestAssembleGain:
    def test_single_cluster_identity(self):
        plan = DecompositionPlan(np.eye(2), (2,))
        K = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(assemble_gain(plan, [K], 1, 1), K)

    def test_two_agent_square_root(self):
        # scalar clusters with gains sqrt(1), sqrt(3) reassemble to G1^(1/2)
        G1 = np.array([[2.0, -1.0], [-1.0, 2.0]])
        plan = construct_T(G1, np.eye(2))
        lams = np.diag(plan.T @ G1 @ plan.T.T)
        gains = [np.array([[np.sqrt(lam)]]) for lam in lams]
        K = assemble_gain(plan, gains, 1, 1)
        np.testing.assert_allclose(K, matkit.sqrtm_psd(G1), atol=1e-10)
        # cross-check against the global Riccati solution
        _, K_global = matkit.solve_are(np.zeros((2, 2)), np.eye(2), G1, np.eye(2))
        np.testing.assert_allclose(K, K_global, atol=1e-8)

    def test_equal_cluster_gains_commute_with_any_orthogonal_t(self, rng):
        N, n, m = 4, 2, 1
        T, _ = np.linalg.qr(rng.standard_normal((N, N)))
        plan = DecompositionPlan(T, (1,) * N)
        k0 = rng.standard_normal((m, n))
        K = assemble_gain(plan, [k0] * N, n, m)
        np.testing.assert_allclose(K, matkit.kron(np.eye(N), k0), atol=1e-12)

    def test_matches_dense_sandwich(self, rng):
        # (T' (x) I_m) diag(k_1..k_r) (T (x) I_n), formed densely
        from hlqr.decomp import kron_lift

        N, n, m, sizes = 6, 2, 3, (1, 2, 3)
        T, _ = np.linalg.qr(rng.standard_normal((N, N)))
        gains = [rng.standard_normal((m * s, n * s)) for s in sizes]
        K = assemble_gain(DecompositionPlan(T, sizes), gains, n, m)
        dense = kron_lift(T, m).T @ matkit.block_diag(*gains) @ kron_lift(T, n)
        assert np.linalg.norm(K - dense) <= 1e-14 * np.linalg.norm(dense)

    def test_interleaved_size_classes_match_dense_sandwich(self, rng):
        from hlqr.decomp import kron_lift

        N, n, m, sizes = 7, 2, 3, (2, 1, 2, 1, 1)
        T, _ = np.linalg.qr(rng.standard_normal((N, N)))
        gains = [rng.standard_normal((m * s, n * s)) for s in sizes]
        K = assemble_gain(DecompositionPlan(T, sizes), gains, n, m)
        dense = kron_lift(T, m).T @ matkit.block_diag(*gains) @ kron_lift(T, n)
        assert np.linalg.norm(K - dense) <= 1e-13 * np.linalg.norm(dense)

    def test_rejects_bad_cluster_gains(self):
        plan = DecompositionPlan(np.eye(3), (1, 2))
        good = [np.ones((1, 1)), np.ones((2, 2))]
        with pytest.raises(DimensionMismatch, match=r"^expected 2 cluster gains, got 1"):
            assemble_gain(plan, good[:1], 1, 1)
        with pytest.raises(DimensionMismatch, match=r"^cluster gain \(2, 3\), expected \(2, 2\)"):
            assemble_gain(plan, [good[0], np.ones((2, 3))], 1, 1)
        with pytest.raises(PreconditionFailed, match="^cluster gain has non-finite entries"):
            assemble_gain(plan, [good[0], np.full((2, 2), np.nan)], 1, 1)
        with pytest.raises(DimensionMismatch, match="^cluster gain must be 2-d"):
            assemble_gain(plan, [np.ones((1, 1, 1)), good[1]], 1, 1)
        # a scalar is a 1 x 1 gain
        np.testing.assert_array_equal(assemble_gain(plan, [2.0, np.eye(2)], 1, 1),
                                      np.diag([2.0, 1.0, 1.0]))

    def test_optimality_equivalence(self, rng):
        # per-cluster Riccati solves reassemble to the global solution
        for _ in range(10):
            N = int(rng.integers(2, 5))
            n = int(rng.integers(1, 3))
            m = 1
            A, B = random_controllable(rng, n, m)
            G1 = 0.5 * np.eye(N) + random_laplacian(rng, N)
            Q0, R0 = random_spd(rng, n), random_spd(rng, m)
            spec = LqrSpec(N, n, m, G1, np.eye(N), Q0, R0)
            plan = construct_T(G1, np.eye(N))
            K, _ = hierarchical_model_based(spec, plan, AgentModel(A, B))
            eye = np.eye(N)
            _, K_opt = matkit.solve_are(matkit.kron(eye, A), matkit.kron(eye, B),
                                        spec.Q, spec.R)
            rel = np.linalg.norm(K - K_opt) / np.linalg.norm(K_opt)
            assert rel <= 1e-7

    def test_model_based_refuses_callable_plant(self):
        # a black-box plant has no A/B to solve the cluster Riccati equations with
        G1 = np.array([[2.0, -1.0], [-1.0, 2.0]])
        spec = LqrSpec(2, 1, 1, G1, np.eye(2), np.eye(1), np.eye(1))
        plan = construct_T(G1, np.eye(2))
        with pytest.raises(PreconditionFailed, match="A/B"):
            hierarchical_model_based(spec, plan, lambda x, u: u)


class TestEvaluateCost:
    def test_scalar(self):
        assert evaluate_cost([[-1.0]], [[2.0]], [1.0]) == pytest.approx(1.0)

    def test_lqr_identity(self):
        # at the optimum the cost equals x0' P x0
        P, K = matkit.solve_are([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        J = evaluate_cost([[-float(K[0, 0])]], [[1.0 + float(K[0, 0]) ** 2]], [1.0])
        assert J == pytest.approx(float(P[0, 0]), rel=1e-9)

    def test_two_agent_optimal_cost(self):
        G1 = np.array([[2.0, -1.0], [-1.0, 2.0]])
        P, K = matkit.solve_are(np.zeros((2, 2)), np.eye(2), G1, np.eye(2))
        x0 = np.array([1.0, 1.0])
        J = evaluate_cost(-K, G1 + K.T @ K, x0)
        np.testing.assert_allclose(J, x0 @ matkit.sqrtm_psd(G1) @ x0, atol=1e-7)
        np.testing.assert_allclose(J, x0 @ P @ x0, atol=1e-8)
