import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from hlqr import bench, matkit
from hlqr.errors import (
    DimensionMismatch,
    NotHurwitz,
    NotSymmetric,
    PreconditionFailed,
    SolverDiverged,
)
from conftest import (
    random_controllable,
    random_spd,
    save_matrix_csv,
    save_matrix_json,
)

PATH2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
PATH3 = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


dim = st.integers(min_value=1, max_value=4)


def assert_matches_scipy(P, A, B, Q, R):
    """solve_are's P against scipy's independent Riccati solver."""
    P_ref = sla.solve_continuous_are(A, B, Q, R)
    assert np.linalg.norm(P - P_ref) <= 1e-9 * np.linalg.norm(P_ref)


def stiff_instance():
    """Q = 1e4 I, R = 1e-4 I: closed-loop poles from ~1 to ~2e4."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 1))
    return A, B, 1e4 * np.eye(3), 1e-4 * np.eye(1)


def small_matrix(rows, cols, rng_seed):
    rng = np.random.default_rng(rng_seed)
    return rng.uniform(-2, 2, (rows, cols))


class TestKron:
    def test_identity_blocks(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        out = matkit.kron(np.eye(2), N)
        expected = np.zeros((4, 4))
        expected[:2, :2] = N
        expected[2:, 2:] = N
        np.testing.assert_array_equal(out, expected)

    def test_scalar(self):
        np.testing.assert_array_equal(matkit.kron([[2.0]], [[3.0]]), [[6.0]])

    def test_shifted_path_laplacian(self):
        # expand the definition by hand: (0.5 I + L) entries times I2
        G = 0.5 * np.eye(2) + PATH2
        out = matkit.kron(G, np.eye(2))
        expected = np.array(
            [
                [1.5, 0.0, -1.0, 0.0],
                [0.0, 1.5, 0.0, -1.0],
                [-1.0, 0.0, 1.5, 0.0],
                [0.0, -1.0, 0.0, 1.5],
            ]
        )
        np.testing.assert_allclose(out, expected, rtol=0, atol=0)

    @pytest.mark.parametrize("a, b", [((3, 3), (4, 4)), ((2, 5), (3, 1)), ((1, 4), (2, 3)),
                                      ((1, 1), (4, 4)), ((3, 2), (1, 1)), ((1, 1), (1, 1))],
                             ids=["square", "rect", "row", "1x1-left", "1x1-right", "1x1"])
    def test_equals_numpy_kron(self, rng, a, b):
        A, B = rng.standard_normal(a), rng.standard_normal(b)
        np.testing.assert_array_equal(matkit.kron(A, B), np.kron(A, B))

    def test_rejects_non_finite_and_3d_inputs(self):
        with pytest.raises(PreconditionFailed, match="^A has non-finite entries"):
            matkit.kron([[np.nan]], np.eye(2))
        with pytest.raises(PreconditionFailed, match="^B has non-finite entries"):
            matkit.kron(np.eye(2), [[1.0, np.inf]])
        with pytest.raises(DimensionMismatch, match="^B must be 2-d"):
            matkit.kron(np.eye(2), np.ones((2, 2, 2)))

    @settings(deadline=None, max_examples=40)
    @given(p=dim, q=dim, r=dim, s=dim, seed=st.integers(0, 2**31))
    def test_mixed_product(self, p, q, r, s, seed):
        A = small_matrix(p, q, seed)
        C = small_matrix(q, r, seed + 1)
        B = small_matrix(r, s, seed + 2)
        D = small_matrix(s, p, seed + 3)
        left = matkit.kron(A, B) @ matkit.kron(C, D)
        right = matkit.kron(A @ C, B @ D)
        assert np.linalg.norm(left - right) <= 1e-10 * max(np.linalg.norm(right), 1.0)


class TestRequireSquare:
    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch, match="^G1 must not be empty"):
            matkit.require_square(np.zeros((0, 0)), "G1")


class TestSqrtmPsd:
    def test_identity(self):
        np.testing.assert_allclose(matkit.sqrtm_psd(np.eye(3)), np.eye(3), atol=1e-12)

    def test_two_by_two(self):
        # eigenpairs (1, [1, -1]/sqrt 2) and (3, [1, 1]/sqrt 2)
        s3 = np.sqrt(3.0)
        root = matkit.sqrtm_psd(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(root, 0.5 * np.array([[1 + s3, s3 - 1], [s3 - 1, 1 + s3]]),
                                   atol=1e-12)

    def test_shifted_path3(self):
        # roots of the path-3 Laplacian characteristic polynomial are 0, 1, 3
        root = matkit.sqrtm_psd(0.5 * np.eye(3) + PATH3)
        np.testing.assert_allclose(np.linalg.eigvalsh(root), np.sqrt([0.5, 1.5, 3.5]),
                                   atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            matkit.sqrtm_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @settings(deadline=None, max_examples=30)
    @given(k=st.integers(2, 6), seed=st.integers(0, 2**31))
    def test_reconstruction(self, k, seed):
        # a singular PSD M of rank k - 1
        X = np.random.default_rng(seed).standard_normal((k, k - 1))
        M = X @ X.T
        root = matkit.sqrtm_psd(M)
        np.testing.assert_array_equal(root, root.T)
        assert np.linalg.eigvalsh(root)[0] >= -1e-10 * np.linalg.norm(root)
        assert np.linalg.norm(root @ root - M) <= 1e-7 * np.linalg.norm(M)


class TestSupportPartition:
    """``component_labels`` on the support graph of a matrix, the partition
    that ``bench.gen_graph`` and ``decomp.construct_T`` take; entries on
    the diagonal are self-loops, which link nothing."""

    def test_diagonal(self):
        count, labels = matkit.component_labels(np.diag([1.0, 2.0, 3.0]) != 0)
        assert count == 3 and labels.tolist() == [0, 1, 2]

    def test_explicit_blocks(self):
        M = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        count, labels = matkit.component_labels(M != 0)
        assert count == 2 and labels.tolist() == [0, 0, 1]

    def test_complete(self):
        count, labels = matkit.component_labels(np.ones((3, 3)) != 0)
        assert count == 1 and labels.tolist() == [0, 0, 0]

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**31), k=st.integers(2, 7))
    def test_permutation_equivariance(self, seed, k):
        rng = np.random.default_rng(seed)
        M = rng.random((k, k)) < 0.3
        adj = M | M.T
        perm = rng.permutation(k)
        count, labels = matkit.component_labels(adj)
        moved_count, moved = matkit.component_labels(adj[np.ix_(perm, perm)])
        # vertex j of the permuted graph is vertex perm[j] of the original,
        # so both labelings group the vertices alike
        assert moved_count == count
        grouped = labels[perm]
        np.testing.assert_array_equal(moved[:, None] == moved, grouped[:, None] == grouped)


def random_adjacency(rng, N, density):
    """Symmetric boolean adjacency with zero diagonal and edge probability
    ``density``."""
    upper = np.triu(rng.random((N, N)) < density, 1)
    return upper | upper.T


class TestComponentLabels:
    @pytest.mark.parametrize("N", [1, 2, 50, 300])
    @pytest.mark.parametrize("density", [0.0, "sparse", 1.0])
    def test_equals_scipy(self, N, density):
        rng = np.random.default_rng(N)
        # 1/N keeps the graph near its giant-component threshold, so the
        # draw mixes singletons, small components and one large one
        p = 1.0 / N if density == "sparse" else density
        for _ in range(5):
            adj = random_adjacency(rng, N, p)
            count, labels = matkit.component_labels(adj)
            ref_count, ref_labels = connected_components(adj, directed=False)
            assert count == ref_count
            np.testing.assert_array_equal(labels, ref_labels)

    @pytest.mark.parametrize("N", [1, 2, 50, 300])
    def test_bipartite_pairing_block_equals_scipy(self, N):
        # the shape decomp._paired_groups labels: a 2N graph whose only
        # edges link row eigenvector i to column eigenvector j; p = 0 gets
        # a permutation matching, the pairing of two distinct bases
        rng = np.random.default_rng(7 + N)
        for p in (0.0, 1.0 / N, 1.0):
            links = rng.random((N, N)) < p
            links[np.arange(N), rng.permutation(N)] |= p == 0.0
            zero = np.zeros_like(links)
            adj = np.block([[zero, links], [links.T, zero]])
            count, labels = matkit.component_labels(adj)
            ref_count, ref_labels = connected_components(adj, directed=False)
            assert count == ref_count
            np.testing.assert_array_equal(labels, ref_labels)


class TestBlockDiag:
    def test_square_and_rectangular_equal_scipy(self):
        rng = np.random.default_rng(3)
        blocks = [rng.standard_normal((4, 4)), rng.standard_normal((4, 2)),
                  rng.standard_normal((1, 3)), rng.standard_normal((4, 4))]
        out = matkit.block_diag(*blocks)
        np.testing.assert_array_equal(out, sla.block_diag(*blocks))
        assert out.dtype == np.float64

    def test_single_block_equals_scipy(self):
        block = np.random.default_rng(4).standard_normal((4, 2))
        out = matkit.block_diag(block)
        np.testing.assert_array_equal(out, sla.block_diag(block))
        assert out is not block


class TestSolveLyapunov:
    def test_scalar(self):
        X = matkit.solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        np.testing.assert_allclose(X, [[1.0]], atol=1e-12)

    def test_diagonal(self):
        X = matkit.solve_lyapunov(-np.eye(2), np.eye(2))
        np.testing.assert_allclose(X, 0.5 * np.eye(2), atol=1e-12)

    def test_against_kron_solve(self):
        # independent oracle: vectorize A'X + XA = -W as a linear system
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        W = np.eye(2)
        n = 2
        coeff = np.kron(A.T, np.eye(n)) + np.kron(np.eye(n), A.T)
        x = np.linalg.solve(coeff, -W.ravel())
        expected = x.reshape(n, n)
        X = matkit.solve_lyapunov(A, W)
        np.testing.assert_allclose(X, expected, atol=1e-10)
        residual = np.linalg.norm(A.T @ X + X @ A + W)
        assert residual <= 1e-8 * (
            np.linalg.norm(X) * np.linalg.norm(A) + np.linalg.norm(W)
        )

    def test_rejects_unstable(self):
        with pytest.raises(NotHurwitz):
            matkit.solve_lyapunov(np.array([[0.0]]), np.array([[1.0]]))

    def test_rejects_asymmetric_w(self):
        with pytest.raises(NotSymmetric):
            matkit.solve_lyapunov(-np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSolveAre:
    def test_scalar_fixed_point(self):
        P, K = matkit.solve_are([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        np.testing.assert_allclose(P, [[1.0]], atol=1e-9)
        np.testing.assert_allclose(K, [[1.0]], atol=1e-9)

    def test_double_integrator(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        P, K = matkit.solve_are(A, B, np.eye(2), np.eye(1))
        s3 = np.sqrt(3.0)
        analytic_P = np.array([[s3, 1.0], [1.0, s3]])
        # the analytic candidate satisfies the Riccati equation exactly
        assert matkit.are_residual(A, B, np.eye(2), np.eye(1), analytic_P) < 1e-12
        np.testing.assert_allclose(P, analytic_P, atol=1e-8)
        np.testing.assert_allclose(K, [[1.0, s3]], atol=1e-8)

    def test_matrix_square_root_case(self):
        # with A = 0, B = I, R = I the equation reduces to Q - P^2 = 0
        Q = np.array([[2.0, -1.0], [-1.0, 2.0]])
        P, K = matkit.solve_are(np.zeros((2, 2)), np.eye(2), Q, np.eye(2))
        root = matkit.sqrtm_psd(Q)
        np.testing.assert_allclose(P, root, atol=1e-8)
        np.testing.assert_allclose(K, root, atol=1e-8)

    def test_closed_loop_hurwitz_on_random_instances(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            A, B = random_controllable(rng, n, m)
            Q = random_spd(rng, n)
            R = random_spd(rng, m)
            P, K = matkit.solve_are(A, B, Q, R)
            assert matkit.spectral_abscissa(A - B @ K) < 0
            assert np.min(np.linalg.eigvalsh(P)) > 0
            bound = 1e-8 * np.linalg.norm(P) * max(1.0, np.linalg.norm(A)) ** 2
            assert matkit.are_residual(A, B, Q, R, P) <= bound
            assert_matches_scipy(P, A, B, Q, R)

    def test_rejects_uncontrollable(self):
        with pytest.raises(PreconditionFailed):
            matkit.solve_are(np.eye(2), [[1.0], [0.0]], np.eye(2), [[1.0]])

    def test_rejects_indefinite_r(self):
        with pytest.raises(PreconditionFailed):
            matkit.solve_are([[0.0]], [[1.0]], [[1.0]], [[-1.0]])

    def test_rejects_overflowing_hamiltonian(self):
        # B R^-1 B' overflows to inf for a subnormal R
        with pytest.raises(PreconditionFailed):
            matkit.solve_are([[1.0]], [[1.0]], [[1.0]], [[1e-310]])

    def test_rejects_unobservable(self):
        # Q = 0 sees nothing of an uncontrolled-by-cost state
        with pytest.raises(PreconditionFailed):
            matkit.solve_are([[0.0]], [[1.0]], [[0.0]], [[1.0]])

    def test_stiff_instance_polished_to_the_bound(self):
        # the doubling seed alone misses the residual bound here (by ~17x)
        A, B, Q, R = stiff_instance()
        P, K = matkit.solve_are(A, B, Q, R)
        bound = 1e-8 * np.linalg.norm(P) * max(1.0, np.linalg.norm(A)) ** 2
        assert matkit.are_residual(A, B, Q, R, P) <= bound
        assert matkit.spectral_abscissa(A - B @ K) < 0
        assert_matches_scipy(P, A, B, Q, R)

    def test_formation_matches_scipy(self):
        spec, model, _ = bench.build_example(bench.BenchConfig(N=10, seed=11))
        P, _ = matkit.solve_are(model.A, model.B, spec.Q, spec.R)
        assert_matches_scipy(P, model.A, model.B, spec.Q, spec.R)

    def test_kleinman_step_fixes_the_riccati_solution(self, rng):
        A, B = random_controllable(rng, 3, 2)
        Q, R = random_spd(rng, 3), random_spd(rng, 2)
        P, K = matkit.solve_are(A, B, Q, R)
        P1, K1 = next(matkit.kleinman_steps(A, B, Q, R, K))
        np.testing.assert_allclose(P1, P, rtol=1e-8, atol=1e-10 * np.linalg.norm(P))
        np.testing.assert_allclose(K1, K, rtol=1e-8, atol=1e-10 * np.linalg.norm(K))

    def test_singular_solve_raises_solver_diverged(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(matkit.np.linalg, "inv", singular)
        with pytest.raises(SolverDiverged, match="doubling breakdown: Singular matrix"):
            matkit.solve_are([[0.0]], [[1.0]], [[1.0]], [[1.0]])

    def test_singular_doubling_names_gamma_and_doublings(self, monkeypatch):
        # two setup inverses, then one per doubling: fail the second doubling's
        inv, calls = np.linalg.inv, []

        def singular_at_fourth(M):
            calls.append(M)
            if len(calls) == 4:
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(M)

        monkeypatch.setattr(matkit.np.linalg, "inv", singular_at_fourth)
        A, B = [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]]
        with pytest.raises(SolverDiverged) as info:
            matkit.solve_are(A, B, np.eye(2), np.eye(1))
        assert re.fullmatch(r"Riccati doubling breakdown: Singular matrix "
                            r"\(gamma 2, 2 doublings, last relative step \S+\)",
                            str(info.value))

    def test_rejects_asymmetric_q(self):
        A, B = [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]]
        with pytest.raises(NotSymmetric):
            matkit.solve_are(A, B, [[1.0, 1.0], [0.0, 1.0]], [[1.0]])

    def test_rejects_indefinite_q(self):
        A, B = [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]]
        with pytest.raises(PreconditionFailed, match="not PSD") as info:
            matkit.solve_are(A, B, np.diag([1.0, -1.0]), [[1.0]])
        assert not isinstance(info.value, NotSymmetric)

    def test_singular_q_unobservable_pair_rejected(self):
        # Q sees only the first of two decoupled modes
        A, B = np.diag([-1.0, -2.0]), [[1.0], [1.0]]
        with pytest.raises(PreconditionFailed, match="not observable"):
            matkit.solve_are(A, B, np.diag([1.0, 0.0]), [[1.0]])

    def test_singular_q_observable_pair_solves(self):
        # Q = C'C with C = [1, 0]: position cost on the double integrator
        A, B = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])
        Q, R = np.diag([1.0, 0.0]), np.eye(1)
        P, K = matkit.solve_are(A, B, Q, R)
        assert matkit.spectral_abscissa(A - B @ K) < 0
        assert_matches_scipy(P, A, B, Q, R)

    @pytest.mark.parametrize("phase", ["breakdown", "cap", "newton"])
    def test_divergence_names_phase_gamma_doublings_step(self, phase, monkeypatch):
        if phase == "breakdown":
            # G = 1e300 is finite, but Q A_gamma^-1 G overflows, so the Cayley
            # transform W is infinite and the first doubling meets a zero iterate
            args = ([[0.0]], [[1e150]], [[1e10]], [[1.0]])
            expected = "Riccati doubling breakdown"
        elif phase == "cap":
            # the double integrator needs 6 doublings to converge
            monkeypatch.setattr(matkit, "SDA_MAX_DOUBLINGS", 2)
            args = ([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], np.eye(2), np.eye(1))
            expected = "Riccati doubling reached the cap of 2 doublings"
        else:
            monkeypatch.setattr(matkit, "NEWTON_STEPS", 0)
            args = stiff_instance()
            expected = "Newton polish"
        with pytest.raises(SolverDiverged) as info:
            matkit.solve_are(*args)
        message = str(info.value)
        assert message.startswith(expected)
        assert re.search(r"gamma \S+, \d+ doublings, last relative step \S+\)$", message)

    def test_stress_draw_solves_or_raises_typed(self):
        # 600 draws over wide scales (||A||_F 1e-2..1e3, ||Q|| 1e-2..1e4,
        # ||R|| 1e-6..1e4), plain and with A -> D A D^-1, D = diag(10^U(-1,1)).
        counts = {"ok": 0, "precondition": 0, "diverged": 0}
        for i in range(600):
            rng = np.random.default_rng(10000 + i)
            n = int(rng.integers(1, 12))
            m = int(rng.integers(1, n + 1))
            A = rng.standard_normal((n, n))
            A *= 10 ** rng.uniform(-2, 3) / np.linalg.norm(A)
            B = rng.standard_normal((n, m))
            Q = random_spd(rng, n)
            Q *= 10 ** rng.uniform(-2, 4) / np.linalg.norm(Q)
            R = random_spd(rng, m)
            R *= 10 ** rng.uniform(-6, 4) / np.linalg.norm(R)
            d = 10 ** rng.uniform(-1, 1, n)
            for A_i in (A, d[:, None] * A / d[None, :]):
                try:
                    P, K = matkit.solve_are(A_i, B, Q, R)
                except PreconditionFailed:
                    counts["precondition"] += 1
                    continue
                except SolverDiverged:
                    counts["diverged"] += 1
                    continue
                bound = 1e-8 * np.linalg.norm(P) * max(1.0, np.linalg.norm(A_i)) ** 2
                assert matkit.are_residual(A_i, B, Q, R, P) <= bound
                assert matkit.spectral_abscissa(A_i - B @ K) < 0
                counts["ok"] += 1
        # pinned, so a draw that solves today cannot silently start to fail
        assert counts == {"ok": 1184, "precondition": 16, "diverged": 0}


class TestRankHelpers:
    def test_ctrb_rank_matches_dense_stack(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, m))
            stack = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
            assert matkit.ctrb_rank(A, B) == matkit.numerical_rank(stack)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_ranks_match_dense_stack_at_any_input_scale(self, rng, scale):
        # generic draws, and draws whose last state neither B nor A reaches
        for trial in range(20):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 3))
            A = rng.standard_normal((n, n))
            B = scale * rng.standard_normal((n, m))
            if trial % 2:
                A[-1, :-1] = 0.0
                B[-1] = 0.0
            stack = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
            assert matkit.ctrb_rank(A, B) == matkit.numerical_rank(stack)
            assert matkit.obsv_rank(B.T, A.T) == matkit.numerical_rank(stack)

    def test_stacked_ranks_are_per_matrix_ranks(self, rng):
        # full rank, rank 3 of 5, rank 1, all zero; each at its own scale
        stack = rng.standard_normal((4, 12, 5)) * np.array([1e-6, 1.0, 1e6, 1.0])[:, None, None]
        stack[1] = stack[1, :, :3] @ rng.standard_normal((3, 5))
        stack[2] = np.outer(stack[2, :, 0], rng.standard_normal(5))
        stack[3] = 0.0
        ranks = matkit.numerical_rank(stack)
        assert ranks.tolist() == [5, 3, 1, 0]
        assert ranks.tolist() == [matkit.numerical_rank(M) for M in stack]
        stack[1, 0, 0] = np.nan
        with pytest.raises(PreconditionFailed):
            matkit.numerical_rank(stack)

    def test_full_rank_b_decides_without_a(self, rng, monkeypatch):
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 5))
        stack = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(4)])
        assert matkit.numerical_rank(stack) == 4

        def no_norm(*args, **kwargs):
            raise AssertionError("||A||_2 taken although B alone has rank n")

        monkeypatch.setattr(matkit.np.linalg, "norm", no_norm)
        assert matkit.ctrb_rank(A, B) == 4
        assert matkit.obsv_rank(B.T, A.T) == 4

    def test_ctrb_rank_survives_large_systems(self):
        # powers of the raw stack overflow here; the scaled test must not
        a = 3.0
        A1 = np.array([[0.0, 1.0], [0.0, -a]])
        A = np.kron(np.eye(150), A1)
        B = np.kron(np.eye(150), np.array([[0.0], [1.0]]))
        assert matkit.ctrb_rank(A, B) == 300


class TestMatrixIO:
    def test_csv_roundtrip(self, rng, tmp_path):
        M = rng.standard_normal((3, 5))
        path = tmp_path / "m.csv"
        save_matrix_csv(M, path)
        np.testing.assert_array_equal(matkit.load_matrix_csv(path), M)

    def test_json_roundtrip(self, rng, tmp_path):
        M = rng.standard_normal((4, 2)) * 1e-7
        path = tmp_path / "m.json"
        save_matrix_json(M, path)
        np.testing.assert_array_equal(matkit.load_matrix_json(path), M)

    def test_dispatch_by_extension(self, rng, tmp_path):
        M = rng.standard_normal((2, 2))
        for name, save in (("m.csv", save_matrix_csv),
                           ("m.json", save_matrix_json)):
            save(M, tmp_path / name)
            np.testing.assert_array_equal(matkit.load_matrix(tmp_path / name), M)

    def test_json_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            matkit.matrix_from_json({"rows": 2, "cols": 2, "data": [1.0, 2.0]})
