import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlqr import decomp, matkit
from hlqr.decomp import (
    ClusterProblem,
    DecompositionPlan,
    ExcitationConfig,
    LqrSpec,
    construct_T,
    kron_lift,
    lift,
    project_problem,
    verify_plan,
)
from hlqr.errors import DimensionMismatch, PreconditionFailed
from conftest import diagonal_blocks, random_laplacian, random_spd, random_symmetric

G1_3X3 = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
G2_3X3 = np.diag([1.0, 2.0, 3.0])


class TestLqrSpec:
    def test_valid(self):
        spec = LqrSpec(2, 1, 1, np.array([[2.0, -1.0], [-1.0, 2.0]]),
                       np.eye(2), np.eye(1), np.eye(1))
        np.testing.assert_allclose(spec.Q, spec.G1)
        np.testing.assert_allclose(spec.R, np.eye(2))

    def test_rejects_indefinite_g1(self):
        with pytest.raises(PreconditionFailed):
            LqrSpec(2, 1, 1, -np.eye(2), np.eye(2), np.eye(1), np.eye(1))

    def test_rejects_singular_g2(self):
        with pytest.raises(PreconditionFailed):
            LqrSpec(2, 1, 1, np.eye(2), np.diag([1.0, 0.0]), np.eye(1), np.eye(1))

    def test_rejects_wrong_dims(self):
        with pytest.raises(DimensionMismatch):
            LqrSpec(3, 1, 1, np.eye(2), np.eye(2), np.eye(1), np.eye(1))

    def test_accepts_singular_psd_g1(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        LqrSpec(2, 1, 1, L, np.eye(2), np.eye(1), np.eye(1))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ExcitationConfig(frequency_range=(0.1, np.inf)), id="frequency-inf"),
    pytest.param(lambda: ExcitationConfig(frequency_range=(np.nan, 1.0)), id="frequency-nan"),
    pytest.param(lambda: ExcitationConfig(component_count=2.5), id="components-2.5"),
    pytest.param(lambda: ExcitationConfig(component_count=True), id="components-bool"),
    pytest.param(lambda: ExcitationConfig(amplitude=np.nan), id="amplitude-nan"),
    pytest.param(lambda: ExcitationConfig(amplitude=np.inf), id="amplitude-inf"),
    pytest.param(lambda: ExcitationConfig(seed=1.5), id="seed-1.5"),
    pytest.param(lambda: ClusterProblem(1, 1, np.eye(1), np.eye(1), sample_interval=np.inf),
                 id="interval-inf"),
    pytest.param(lambda: ClusterProblem(1, 1, np.eye(1), np.eye(1), sample_interval=np.nan),
                 id="interval-nan"),
    pytest.param(lambda: ClusterProblem(1, 1, np.eye(1), np.eye(1), window_count=4.5),
                 id="windows-4.5"),
])
def test_config_rejects_non_finite_and_non_integer_values(build):
    with pytest.raises(PreconditionFailed):
        build()


def _spec_of(N, n, m):
    return LqrSpec(N, n, m, np.eye(2), np.eye(2), np.eye(1), np.eye(1))


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: ExcitationConfig(frequency_range=(1.0,)), "frequency_range",
                 id="frequency-1-tuple"),
    pytest.param(lambda: ExcitationConfig(frequency_range=(0.1, 1.0, 2.0)), "frequency_range",
                 id="frequency-3-tuple"),
    pytest.param(lambda: _spec_of(2, 1.0, 1), "n", id="spec-float-n"),
    pytest.param(lambda: _spec_of(2.0, 1, 1), "N", id="spec-float-N"),
    pytest.param(lambda: _spec_of(2, 1, 0), "m", id="spec-zero-m"),
    pytest.param(lambda: _spec_of(2, True, 1), "n", id="spec-bool-n"),
])
def test_malformed_fields_raise_precondition_naming_them(build, field):
    with pytest.raises(PreconditionFailed, match=rf"^{field} must be"):
        build()


def test_cluster_problem_derives_window_count():
    problem = ClusterProblem(2, 1, np.eye(2), np.eye(1))
    assert problem.window_count == decomp.WINDOW_FACTOR * problem.q == 10


class TestConstructT:
    def test_complete_decomposition_identity_g2(self, rng):
        L = random_laplacian(rng, 5)
        G1 = 0.5 * np.eye(5) + L
        plan = construct_T(G1, np.eye(5))
        assert plan.r == 5
        assert plan.decomposable
        assert verify_plan(plan, G1, np.eye(5)).passed
        # rows of T are eigenvectors of G1: T G1 T' is diagonal with the spectrum
        diag = np.diag(plan.T @ G1 @ plan.T.T)
        np.testing.assert_allclose(np.sort(diag), np.linalg.eigvalsh(G1), atol=1e-8)

    @pytest.mark.filterwarnings("error")
    def test_already_diagonal(self):
        # G1 = 0 is PSD: the split then comes from G2 alone, with no warning
        for G1 in (np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3))):
            plan = construct_T(G1, np.diag([4.0, 5.0, 6.0]))
            assert plan.cluster_sizes == (1, 1, 1)
            assert verify_plan(plan, G1, np.diag([4.0, 5.0, 6.0])).passed
            # T is the identity up to row signs and permutation
            assert np.allclose(np.abs(plan.T), np.eye(3), atol=1e-12)

    def test_two_cluster_pairing(self):
        plan = construct_T(G1_3X3, G2_3X3)
        assert plan.cluster_sizes == (2, 1)
        # oracle: the components of each transformed matrix's support graph
        # refine the plan's block structure
        blocks = [{0, 1}, {2}]
        for G in (G1_3X3, G2_3X3):
            M = np.abs(plan.T @ G @ plan.T.T)
            count, labels = matkit.component_labels(M + M.T > 1e-8)
            for c in range(count):
                assert any(set(np.flatnonzero(labels == c)) <= b for b in blocks)
            if G is G1_3X3:
                assert labels.tolist() == [0, 0, 1]
        assert verify_plan(plan, G1_3X3, G2_3X3).passed
        # the eigenvector inner products pair {1,2} with q1,q2 and {3} with q3
        (_, v1), (_, v2) = np.linalg.eigh(G1_3X3), np.linalg.eigh(G2_3X3)
        gram = np.abs(v1.T @ v2)
        assert gram[2, :2].max() < 1e-12 and gram[:2, 2].max() < 1e-12

    def test_repeated_noncommuting_pair_splits(self):
        # G1 repeats an eigenvalue and does not commute with G2, yet both
        # leave span{e2} and span{e1, e3} invariant
        G1 = np.diag([1.0, 1.0, 2.0])
        G2 = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 4.0]])
        scale = np.linalg.norm(G1) * np.linalg.norm(G2)
        assert np.linalg.norm(G1 @ G2 - G2 @ G1) > 1e-8 * scale
        plan = construct_T(G1, G2)
        assert sorted(plan.cluster_sizes) == [1, 2]
        assert verify_plan(plan, G1, G2).passed

    def test_repeated_commuting_falls_back(self):
        # G1 = I has maximally repeated eigenvalues and commutes with G2:
        # the split is complete
        G2 = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
        plan = construct_T(np.eye(3), G2)
        assert plan.r == 3
        assert verify_plan(plan, np.eye(3), G2).passed

    def test_trivial_plan_when_not_splittable(self, rng):
        # the second pair repeats one irreducible block, G1 = U diag(M, M) U'
        # and G2 = U diag(S, S) U' with MS != SM: the eigenbasis of the
        # generic combination mixes the two copies, so it stays one cluster
        # (the known multiplicity limit) though two of size 2 exist
        U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        M, S = np.array([[2.0, 1.0], [1.0, 2.0]]), np.diag([1.0, 2.0])
        doubled = [matkit.symmetrize(U @ matkit.block_diag(B, B) @ U.T) for B in (M, S)]
        for G1, G2 in ((M, S), doubled):
            plan = construct_T(G1, G2)
            assert plan.r == 1
            assert not plan.decomposable
            assert verify_plan(plan, G1, G2).passed
            np.testing.assert_array_equal(plan.T, np.eye(len(G1)))
            spec = LqrSpec(len(G1), 1, 1, G1, G2, np.eye(1), np.eye(1))
            np.testing.assert_array_equal(project_problem(spec, plan)[0].Qblock, G1)

    def test_commuting_distinct_pair_decomposes_fully(self, rng):
        # common eigenbasis with distinct spectra on both sides
        Qb, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        G1 = Qb @ np.diag([1.0, 2.0, 3.0, 4.0]) @ Qb.T
        G2 = Qb @ np.diag([5.0, 6.0, 7.0, 8.0]) @ Qb.T
        scale = np.linalg.norm(G1) * np.linalg.norm(G2)
        assert np.linalg.norm(G1 @ G2 - G2 @ G1) <= 1e-10 * scale
        plan = construct_T(G1, G2)
        assert plan.r == 4
        assert verify_plan(plan, G1, G2).passed

    def test_nearly_aligned_eigenbases_give_verified_plan(self):
        # G2 is G1 turned by 1.9e-8, so the coupling of the two eigenvectors
        # sits near the link threshold: one cluster and two verified
        # clusters are both valid answers
        theta = 1.9e-8
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        G1 = np.diag([1.0, 2.0])
        G2 = matkit.symmetrize(rot @ G1 @ rot.T)
        plan = construct_T(G1, G2)
        assert verify_plan(plan, G1, G2).passed

    def test_cluster_rows_span_invariant_subspaces(self):
        # each cluster's rows of T are orthonormal and span a subspace
        # invariant under both weight matrices: (I - Gamma Gamma') G Gamma = 0
        plan = construct_T(G1_3X3, G2_3X3)
        for o, size in zip(plan.offsets(), plan.cluster_sizes):
            gamma = plan.T[o:o + size].T
            np.testing.assert_allclose(gamma.T @ gamma, np.eye(size), atol=1e-10)
            for G in (G1_3X3, G2_3X3):
                residual = G @ gamma - gamma @ (gamma.T @ G @ gamma)
                assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(G)


class TestVerifyPlan:
    def test_constructed_plan_passes(self, rng):
        L = random_laplacian(rng, 4)
        G1 = 0.5 * np.eye(4) + L
        plan = construct_T(G1, np.eye(4))
        check = verify_plan(plan, G1, np.eye(4))
        assert check.passed
        assert check.orthogonality <= 1e-10

    def test_identity_transform_fails_on_coupled_weights(self):
        G1 = np.array([[2.0, 1.0], [1.0, 2.0]])
        plan = DecompositionPlan(T=np.eye(2), cluster_sizes=(1, 1))
        check = verify_plan(plan, G1, np.eye(2))
        assert not check.passed
        # residual equals the off-diagonal Frobenius mass
        np.testing.assert_allclose(check.off_block_g1, np.sqrt(2.0), atol=1e-12)

    def test_hand_built_transform(self):
        # same oracle as the pairing test, built explicitly
        s = 1 / np.sqrt(2)
        T = np.array([[s, -s, 0.0], [s, s, 0.0], [0.0, 0.0, 1.0]])
        plan = DecompositionPlan(T, (2, 1))
        assert verify_plan(plan, G1_3X3, G2_3X3).passed

    def test_residuals_equal_block_diag_formula(self, rng):
        # blocks zeroed in place give the residuals of
        # ||T G T' - block_diag(its diagonal blocks)|| bit for bit on a random plan
        import scipy.linalg as sla

        T, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        plan = DecompositionPlan(T, (2, 1, 3, 2))
        G1, G2 = (random_symmetric(rng, 8) + 8 * np.eye(8) for _ in range(2))
        check = verify_plan(plan, G1, G2)
        for G, residual in ((G1, check.off_block_g1), (G2, check.off_block_g2)):
            assert residual == np.linalg.norm(
                T @ G @ T.T - sla.block_diag(*diagonal_blocks(plan, G)))
            assert residual > 0


class TestProjectProblem:
    def test_scalar_blocks(self, rng):
        L = random_laplacian(rng, 4)
        G1 = 0.5 * np.eye(4) + L
        spec = LqrSpec(4, 2, 1, G1, np.eye(4), np.eye(2), 3.0 * np.eye(1))
        plan = construct_T(G1, np.eye(4))
        problems = project_problem(spec, plan)
        lams = np.sort([p.Qblock[0, 0] for p in problems])
        np.testing.assert_allclose(lams, np.linalg.eigvalsh(G1), atol=1e-8)
        for p in problems:
            assert p.state_dim == 2 and p.input_dim == 1
            np.testing.assert_allclose(p.Rblock, 3.0 * np.eye(1), atol=1e-10)
            assert p.window_count == 2 * p.q

    def test_two_agent_eigenvalues(self):
        G1 = np.array([[2.0, -1.0], [-1.0, 2.0]])
        spec = LqrSpec(2, 1, 1, G1, np.eye(2), np.eye(1), np.eye(1))
        plan = construct_T(G1, np.eye(2))
        problems = project_problem(spec, plan)
        qs = sorted(float(p.Qblock[0, 0]) for p in problems)
        np.testing.assert_allclose(qs, [1.0, 3.0], atol=1e-12)

    def test_trivial_plan_gives_global_problem(self):
        G1 = np.array([[2.0, 1.0], [1.0, 2.0]])
        G2 = np.diag([1.0, 2.0])
        spec = LqrSpec(2, 1, 1, G1, G2, np.eye(1), np.eye(1))
        plan = construct_T(G1, G2)
        (problem,) = project_problem(spec, plan)
        np.testing.assert_allclose(problem.Qblock, spec.Q)
        np.testing.assert_allclose(problem.Rblock, spec.R)

    def test_cluster_excitation_seeds_differ(self, rng):
        L = random_laplacian(rng, 3)
        G1 = 0.5 * np.eye(3) + L
        spec = LqrSpec(3, 1, 1, G1, np.eye(3), np.eye(1), np.eye(1))
        plan = construct_T(G1, np.eye(3))
        problems = project_problem(spec, plan, excitation=ExcitationConfig(seed=7))
        assert [p.excitation.seed for p in problems] == [7, 8, 9]


class TestPlanProperties:
    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**31), N=st.integers(3, 8))
    def test_spectrum_preserved(self, seed, N):
        rng = np.random.default_rng(seed)
        G1 = 0.5 * np.eye(N) + random_laplacian(rng, N)
        plan = construct_T(G1, np.eye(N))
        import scipy.linalg as sla

        block_eigs = np.sort(np.linalg.eigvalsh(sla.block_diag(*diagonal_blocks(plan, G1))))
        np.testing.assert_allclose(block_eigs, np.linalg.eigvalsh(G1), atol=1e-8)

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**31), N=st.integers(2, 5),
           log_gap=st.floats(-10.0, 0.0), log_angle=st.floats(-10.0, -6.0))
    def test_near_repeated_noncommuting_spectra(self, seed, N, log_gap, log_angle):
        # G1 has one eigenvalue pair 10^log_gap apart; the eigenbasis of G2
        # is G1's turned by about 10^log_angle, so the pair does not commute.
        # The result is a plan that verifies.
        import scipy.linalg as sla

        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((N, N)))
        skew = rng.standard_normal((N, N))
        basis2 = basis @ sla.expm(10.0**log_angle * (skew - skew.T))
        gaps = rng.uniform(0.5, 1.5, N - 1)
        gaps[rng.integers(N - 1)] = 10.0**log_gap
        spectrum = np.concatenate([[1.0], 1.0 + np.cumsum(gaps)])
        G1 = matkit.symmetrize(basis @ np.diag(spectrum) @ basis.T)
        G2 = matkit.symmetrize(basis2 @ np.diag(rng.uniform(1.0, 3.0, N)) @ basis2.T)
        assert verify_plan(construct_T(G1, G2), G1, G2).passed

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**31), sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
           identity_g2=st.booleans())
    def test_hidden_blocks_recovered(self, seed, sizes, identity_g2):
        # G1 = U blkdiag(M_i) U' and G2 = U blkdiag(S_i) U' with random SPD
        # blocks, irreducible since M_i and S_i do not commute: the plan
        # finds the hidden sizes; with G2 = I nothing couples G1's
        # eigenvectors and the split is complete
        rng = np.random.default_rng(seed)
        N = sum(sizes)
        U, _ = np.linalg.qr(rng.standard_normal((N, N)))
        G1 = matkit.symmetrize(U @ matkit.block_diag(*(random_spd(rng, k) for k in sizes)) @ U.T)
        G2 = np.eye(N) if identity_g2 else matkit.symmetrize(
            U @ matkit.block_diag(*(random_spd(rng, k) for k in sizes)) @ U.T)
        plan = construct_T(G1, G2)
        assert verify_plan(plan, G1, G2).passed
        assert sorted(plan.cluster_sizes) == ([1] * N if identity_g2 else sorted(sizes))

    def test_plan_json_roundtrip(self, rng, tmp_path):
        G1 = 0.5 * np.eye(4) + random_laplacian(rng, 4)
        plan = construct_T(G1, np.eye(4))
        path = tmp_path / "plan.json"
        decomp.save_plan(plan, path)
        loaded = decomp.load_plan(path)
        np.testing.assert_array_equal(loaded.T, plan.T)
        assert loaded.cluster_sizes == plan.cluster_sizes
        assert loaded.decomposable == plan.decomposable
        import json

        obj = json.loads(path.read_text())
        assert set(obj) == {"T", "clusterSizes", "r", "decomposable"}


class TestSignFixRows:
    @staticmethod
    def looped(F):
        out = F.copy()
        for i in range(out.shape[0]):
            j = int(np.argmax(np.abs(out[i])))
            if out[i, j] < 0:
                out[i] = -out[i]
        return out

    def test_matches_row_loop(self, rng):
        # ties go to the first index; an all-negative row flips
        F = np.array([[1.0, -1.0, 0.5], [-1.0, 1.0, 0.0], [-1.0, -2.0, -3.0],
                      [0.0, 0.0, 0.0], [-0.0, 2.0, -2.0]])
        np.testing.assert_array_equal(decomp._sign_fix_rows(F), self.looped(F))
        for N in (1, 100):
            F = np.linalg.eigh(random_symmetric(rng, N))[1].T
            np.testing.assert_array_equal(decomp._sign_fix_rows(F), self.looped(F))
            assert (np.signbit(decomp._sign_fix_rows(F)) == np.signbit(self.looped(F))).all()


class TestLift:
    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(seed=st.integers(0, 2**31), N=st.integers(1, 6), k=st.integers(1, 3))
    def test_matches_dense_lift(self, seed, N, k):
        # (T (x) I_d) X without the Kronecker product, for all of T, a block
        # of its rows and T', on a vector and on a k-column matrix
        rng = np.random.default_rng(seed)
        T, _ = np.linalg.qr(rng.standard_normal((N, N)))
        o = int(rng.integers(N))
        rows = T[o:o + int(rng.integers(1, N - o + 1))]
        for d in (1, 2, 4):
            for X in (rng.standard_normal(N * d), rng.standard_normal((N * d, k))):
                for S in (T, rows, T.T):
                    want = kron_lift(S, d) @ X
                    got = lift(S, d, X)
                    assert got.shape == want.shape
                    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_rejects_rows_of_another_layout(self):
        with pytest.raises(DimensionMismatch):
            lift(np.eye(2), 2, np.ones(6))


class TestCoordinateEquivalence:
    def test_xi_dynamics_match(self, rng):
        # simulating in original and transformed coordinates agrees pointwise
        from hlqr.lqr import AgentModel
        from hlqr.rl import simulate
        from hlqr import matkit as mk

        N, n, m = 4, 2, 1
        L = random_laplacian(rng, N)
        G1 = 0.5 * np.eye(N) + L
        plan = construct_T(G1, np.eye(N))
        A = np.array([[0.0, 1.0], [-1.0, -1.0]])
        B = np.array([[0.0], [1.0]])
        calA = mk.kron(np.eye(N), A)
        calB = mk.kron(np.eye(N), B)
        spec = LqrSpec(N, n, m, G1, np.eye(N), np.eye(n), np.eye(m))
        P, K = matkit.solve_are(calA, calB, spec.Q, spec.R)

        Tn, Tm = kron_lift(plan.T, n), kron_lift(plan.T, m)
        x0 = rng.standard_normal(n * N)
        traj_x = simulate(AgentModel(calA, calB), K, None, x0, 1e-3, 2.0)
        K_xi = Tm @ K @ Tn.T
        traj_xi = simulate(AgentModel(Tn @ calA @ Tn.T, Tn @ calB @ Tm.T),
                           K_xi, None, Tn @ x0, 1e-3, 2.0)
        err = np.max(np.linalg.norm(traj_xi.x - traj_x.x @ Tn.T, axis=1))
        assert err <= 1e-6

    def test_cost_additivity(self, rng):
        from hlqr.lqr import AgentModel, evaluate_cost, hierarchical_model_based

        N, n, m = 3, 1, 1
        L = random_laplacian(rng, N)
        G1 = 0.5 * np.eye(N) + L
        spec = LqrSpec(N, n, m, G1, np.eye(N), np.eye(n), np.eye(m))
        plan = construct_T(G1, np.eye(N))
        K, solved = hierarchical_model_based(spec, plan, AgentModel(np.zeros((n, n)), np.eye(n)))
        calA, calB = np.zeros((N, N)), np.eye(N)
        x0 = rng.standard_normal(N)
        J_global = evaluate_cost(calA - calB @ K, spec.Q + K.T @ spec.R @ K, x0)
        xi0 = kron_lift(plan.T, n) @ x0
        J_sum, off = 0.0, 0
        for (P, _), size in zip(solved, plan.cluster_sizes):
            xi = xi0[off : off + size]
            J_sum += float(xi @ P @ xi)
            off += size
        assert abs(J_global - J_sum) <= 1e-6 * abs(J_global)
