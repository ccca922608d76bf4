import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlqr import matkit
from hlqr.errors import (
    DimensionMismatch,
    NotHurwitz,
    NotSymmetric,
    PreconditionFailed,
    SolverDiverged,
)
from conftest import random_controllable, random_spd, random_symmetric

PATH2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
PATH3 = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


dim = st.integers(min_value=1, max_value=4)


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


class TestSymEig:
    def test_identity(self):
        e = matkit.sym_eig(np.eye(3))
        np.testing.assert_allclose(e.values, np.ones(3))
        np.testing.assert_allclose(e.vectors.T @ e.vectors, np.eye(3), atol=1e-10)

    def test_two_by_two(self):
        e = matkit.sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(e.values, [1.0, 3.0], atol=1e-12)
        # eigenvectors up to sign
        v0 = e.vectors[:, 0] * np.sign(e.vectors[0, 0])
        np.testing.assert_allclose(v0, [1, -1] / np.sqrt(2), atol=1e-12)

    def test_shifted_path3(self):
        # roots of the path-3 Laplacian characteristic polynomial are 0, 1, 3
        e = matkit.sym_eig(0.5 * np.eye(3) + PATH3)
        np.testing.assert_allclose(e.values, [0.5, 1.5, 3.5], atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            matkit.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @settings(deadline=None, max_examples=30)
    @given(k=st.integers(2, 6), seed=st.integers(0, 2**31))
    def test_reconstruction(self, k, seed):
        M = random_symmetric(np.random.default_rng(seed), k)
        e = matkit.sym_eig(M)
        rebuilt = (e.vectors * e.values) @ e.vectors.T
        assert np.linalg.norm(rebuilt - M) <= 1e-8 * max(np.linalg.norm(M), 1e-12)
        assert np.linalg.norm(e.vectors.T @ e.vectors - np.eye(k)) <= 1e-10
        assert np.all(np.diff(e.values) >= 0)


class TestSupportPartition:
    def test_diagonal(self):
        assert matkit.support_partition(np.diag([1.0, 2.0, 3.0]), 1e-9) == [[0], [1], [2]]

    def test_explicit_blocks(self):
        M = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert matkit.support_partition(M, 1e-9) == [[0, 1], [2]]

    def test_complete(self):
        assert matkit.support_partition(np.ones((3, 3)), 1e-9) == [[0, 1, 2]]

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**31), k=st.integers(2, 7))
    def test_permutation_equivariance(self, seed, k):
        rng = np.random.default_rng(seed)
        M = (rng.random((k, k)) < 0.3).astype(float)
        perm = rng.permutation(k)
        P = np.eye(k)[perm]
        base = matkit.support_partition(M, 1e-9)
        moved = matkit.support_partition(P @ M @ P.T, 1e-9)
        # position of index i in the permuted matrix is perm^-1(i)
        inv = np.argsort(perm)
        mapped = sorted(sorted(int(inv[i]) for i in g) for g in base)
        assert sorted(moved) == mapped


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
        # the Schur solution alone misses the residual bound here (by ~17x)
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 1))
        Q, R = 1e4 * np.eye(3), 1e-4 * np.eye(1)
        P, K = matkit.solve_are(A, B, Q, R)
        bound = 1e-8 * np.linalg.norm(P) * max(1.0, np.linalg.norm(A)) ** 2
        assert matkit.are_residual(A, B, Q, R, P) <= bound
        assert matkit.spectral_abscissa(A - B @ K) < 0

    def test_schur_failure_raises_solver_diverged(self, monkeypatch):
        def broken_schur(*args, **kwargs):
            raise np.linalg.LinAlgError("schur did not converge")

        monkeypatch.setattr(matkit.sla, "schur", broken_schur)
        with pytest.raises(SolverDiverged):
            matkit.solve_are([[0.0]], [[1.0]], [[1.0]], [[1.0]])


class TestRankHelpers:
    def test_ctrb_rank_matches_dense_stack(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, m))
            stack = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
            assert matkit.ctrb_rank(A, B) == matkit.numerical_rank(stack)

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
        matkit.save_matrix_csv(M, path)
        np.testing.assert_array_equal(matkit.load_matrix_csv(path), M)

    def test_json_roundtrip(self, rng, tmp_path):
        M = rng.standard_normal((4, 2)) * 1e-7
        path = tmp_path / "m.json"
        matkit.save_matrix_json(M, path)
        np.testing.assert_array_equal(matkit.load_matrix_json(path), M)

    def test_dispatch_by_extension(self, rng, tmp_path):
        M = rng.standard_normal((2, 2))
        for name in ("m.csv", "m.json"):
            matkit.save_matrix(M, tmp_path / name)
            np.testing.assert_array_equal(matkit.load_matrix(tmp_path / name), M)

    def test_json_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            matkit.matrix_from_json({"rows": 2, "cols": 2, "data": [1.0, 2.0]})
