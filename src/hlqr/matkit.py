"""Dense real linear-algebra kernels shared by the rest of the package.

Kronecker products, symmetric eigendecompositions, sparsity-pattern
partitions, Lyapunov and Riccati solvers, and the matrix file formats
used by the CLI. Everything operates on plain float ``numpy`` arrays and
is pure: no globals, safe to call concurrently.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.sparse.csgraph import connected_components

from .errors import (
    DimensionMismatch,
    NotHurwitz,
    NotSymmetric,
    PreconditionFailed,
    SolverDiverged,
)

DEFAULT_TOL = 1e-8
ORTH_TOL = 1e-10
RANK_RTOL = 1e-9
# Kleinman (Newton) steps solve_are may take to polish its Schur seed.
NEWTON_STEPS = 8


class SymEig(NamedTuple):
    """Symmetric eigendecomposition; ``vectors[:, j]`` pairs with ``values[j]``,
    values ascending, columns orthonormal."""

    values: np.ndarray
    vectors: np.ndarray


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float array with finite entries; scalars become 1x1."""
    A = np.asarray(M, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise PreconditionFailed(f"{name} has non-finite entries")
    return A


def require_square(M, name: str = "matrix") -> np.ndarray:
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    return A


def symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def is_symmetric(M, tol: float = DEFAULT_TOL) -> bool:
    A = require_square(M)
    return float(np.linalg.norm(A - A.T)) <= tol * float(np.linalg.norm(A))


def spectral_abscissa(A) -> float:
    """Largest real part over the eigenvalues of A."""
    return float(np.max(np.linalg.eigvals(require_square(A, "A")).real))


def kron(A, B) -> np.ndarray:
    """Kronecker product: block (i, j) of the result is A[i, j] * B."""
    return np.kron(as_matrix(A, "A"), as_matrix(B, "B"))


def sym_eig(M, tol: float = DEFAULT_TOL) -> SymEig:
    """Eigendecomposition of a symmetric matrix.

    The input must satisfy ||M - M'||_F <= tol * ||M||_F; round-off
    asymmetry is removed by averaging before the decomposition.
    """
    A = require_square(M, "M")
    if float(np.linalg.norm(A - A.T)) > tol * float(np.linalg.norm(A)):
        raise NotSymmetric(f"asymmetry exceeds {tol:g} * ||M||_F")
    values, vectors = np.linalg.eigh(symmetrize(A))
    return SymEig(values, vectors)


def support_partition(M, tol: float = 1e-9) -> list[list[int]]:
    """Connected components of the undirected support graph of M.

    Vertices i != j are adjacent iff |M[i,j]| + |M[j,i]| > tol. Returns
    sorted 0-based index groups, ordered by smallest member.
    """
    A = require_square(M, "M")
    adj = (np.abs(A) + np.abs(A.T)) > tol
    np.fill_diagonal(adj, False)
    count, labels = connected_components(adj, directed=False)
    return [np.flatnonzero(labels == c).tolist() for c in range(count)]


def solve_lyapunov(A, W, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve A'X + XA + W = 0 for symmetric X; A must be Hurwitz."""
    A = require_square(A, "A")
    W = require_square(W, "W")
    if A.shape != W.shape:
        raise DimensionMismatch(f"A is {A.shape}, W is {W.shape}")
    if not is_symmetric(W, tol):
        raise NotSymmetric("W must be symmetric")
    if spectral_abscissa(A) >= 0:
        raise NotHurwitz("A must be Hurwitz")
    X = symmetrize(sla.solve_continuous_lyapunov(A.T, -symmetrize(W)))
    residual = float(np.linalg.norm(A.T @ X + X @ A + W))
    bound = tol * (np.linalg.norm(X) * np.linalg.norm(A) + np.linalg.norm(W))
    if residual > max(bound, np.finfo(float).tiny):
        raise SolverDiverged(f"Lyapunov residual {residual:.3e} above {bound:.3e}")
    return X


def numerical_rank(M, rtol: float = RANK_RTOL) -> int:
    """Count of singular values above rtol times the largest."""
    s = np.linalg.svd(as_matrix(M, "M"), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def ctrb(A, B) -> np.ndarray:
    """Controllability matrix [B, AB, ..., A^(n-1) B]."""
    A = require_square(A, "A")
    B = as_matrix(B, "B")
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"A is {A.shape}, B is {B.shape}")
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def obsv(C, A) -> np.ndarray:
    """Observability matrix [C; CA; ...; CA^(n-1)]."""
    return ctrb(as_matrix(A, "A").T, as_matrix(C, "C").T).T


def ctrb_rank(A, B, rtol: float = RANK_RTOL) -> int:
    """Numerical rank of the Krylov stack [B, AB, A^2 B, ...].

    A is scaled to unit spectral norm first (block scalings do not change
    the stack's column space) so high powers neither overflow nor swamp
    the rank threshold, and the stack is extended only until its rank
    stalls, which by the Krylov subspace property is already final.
    """
    A = require_square(A, "A")
    B = as_matrix(B, "B")
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"A is {A.shape}, B is {B.shape}")
    n = A.shape[0]
    scale = float(np.linalg.norm(A, 2))
    As = A / scale if scale > 0 else A
    bnorm = float(np.linalg.norm(B, 2))
    block = B / bnorm if bnorm > 0 else B
    stack = block
    rank = numerical_rank(stack, rtol)
    for _ in range(n - 1):
        if rank >= n:
            break
        block = As @ block
        stack = np.hstack([stack, block])
        new_rank = numerical_rank(stack, rtol)
        if new_rank == rank:
            break
        rank = new_rank
    return rank


def obsv_rank(C, A, rtol: float = RANK_RTOL) -> int:
    """Numerical rank of the stacked observability matrix, by duality."""
    return ctrb_rank(as_matrix(A, "A").T, as_matrix(C, "C").T, rtol)


def sqrtm_psd(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Symmetric PSD square root.

    Eigenvalues below tol*scale in magnitude count as zero (taking the
    square root of round-off noise would otherwise promote it across rank
    thresholds); eigenvalues below -tol*scale are rejected.
    """
    e = sym_eig(M, tol)
    scale = max(float(np.max(np.abs(e.values))), np.finfo(float).tiny)
    if e.values[0] < -tol * scale:
        raise PreconditionFailed(f"matrix is not PSD (min eig {e.values[0]:.3e})")
    vals = np.where(e.values < tol * scale, 0.0, e.values)
    return symmetrize((e.vectors * np.sqrt(vals)) @ e.vectors.T)


def are_residual(A, B, Q, R, P) -> float:
    """Frobenius norm of A'P + PA + Q - P B R^-1 B' P."""
    BtP = as_matrix(B).T @ P
    return float(np.linalg.norm(A.T @ P + P @ A + Q - BtP.T @ np.linalg.solve(R, BtP)))


def _schur_riccati(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Riccati solution P = U21 U11^-1 from the stable invariant subspace
    [U11; U21] of the Hamiltonian [[A, -B R^-1 B'], [-Q, -A']] (Laub 1979)."""
    n = A.shape[0]
    H = as_matrix(np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]]), "Hamiltonian")
    _, U, stable = sla.schur(H, output="real", sort="lhp")
    if stable != n:
        raise SolverDiverged(f"Hamiltonian has {stable} stable eigenvalues, expected {n}")
    return symmetrize(np.linalg.solve(U[:n, :n].T, U[n:, :n].T).T)


def solve_are(A, B, Q, R, tol: float = DEFAULT_TOL):
    """Solve the continuous algebraic Riccati equation.

    Returns (P, K) with P symmetric positive definite, K = R^-1 B' P and
    A - BK Hurwitz, meeting the residual bound
    ||A'P + PA + Q - P B R^-1 B' P||_F <= tol * ||P||_F * max(1, ||A||_F)^2.
    P is taken from the stable Schur subspace of the Hamiltonian (Laub
    1979); while the bound is missed, up to ``NEWTON_STEPS`` Kleinman
    (Newton) steps polish it. A non-stabilizing gain, a bound still missed
    after those steps, or a numerical breakdown raises ``SolverDiverged``.
    """
    A = require_square(A, "A")
    B = as_matrix(B, "B")
    Q = require_square(Q, "Q")
    R = require_square(R, "R")
    n = A.shape[0]
    if B.shape[0] != n or Q.shape[0] != n or R.shape[0] != B.shape[1]:
        raise DimensionMismatch("inconsistent ARE dimensions")
    if not is_symmetric(R, tol) or np.min(np.linalg.eigvalsh(symmetrize(R))) <= 0:
        raise PreconditionFailed("R must be symmetric positive definite")
    if ctrb_rank(A, B) < n:
        raise PreconditionFailed("(A, B) is not controllable")
    C = sqrtm_psd(Q, tol)
    if obsv_rank(C, A) < n:
        raise PreconditionFailed("(Q^1/2, A) is not observable")

    a_scale = max(1.0, float(np.linalg.norm(A))) ** 2
    try:
        P = _schur_riccati(A, B, Q, R)
        K = np.linalg.solve(R, B.T @ P)
        for step in range(NEWTON_STEPS + 1):
            if spectral_abscissa(A - B @ K) >= 0:
                raise SolverDiverged("Riccati gain does not stabilize A - BK")
            if are_residual(A, B, Q, R, P) <= tol * float(np.linalg.norm(P)) * a_scale:
                return P, K
            if step == NEWTON_STEPS:
                break
            P = solve_lyapunov(A - B @ K, symmetrize(Q + K.T @ R @ K))
            K = np.linalg.solve(R, B.T @ P)
    except np.linalg.LinAlgError as exc:
        raise SolverDiverged(f"Riccati solve broke down: {exc}") from exc
    raise SolverDiverged(f"Riccati residual bound missed after {NEWTON_STEPS} Newton steps")


# ---------------------------------------------------------------------------
# Matrix file formats: headerless CSV and {"rows", "cols", "data"} JSON.
# Both round-trip float64 exactly (17 significant digits).

def matrix_to_json(M) -> dict:
    A = as_matrix(M, "matrix")
    return {"rows": A.shape[0], "cols": A.shape[1], "data": [float(v) for v in A.ravel()]}


def matrix_from_json(obj) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=float)
    if data.size != rows * cols:
        raise DimensionMismatch(f"expected {rows * cols} entries, got {data.size}")
    return data.reshape(rows, cols)


def save_matrix_json(M, path) -> None:
    Path(path).write_text(json.dumps(matrix_to_json(M)))


def load_matrix_json(path) -> np.ndarray:
    return matrix_from_json(json.loads(Path(path).read_text()))


def save_matrix_csv(M, path) -> None:
    A = as_matrix(M, "matrix")
    lines = [",".join(f"{v:.17g}" for v in row) for row in A]
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)


def save_matrix(M, path) -> None:
    if str(path).endswith(".json"):
        save_matrix_json(M, path)
    else:
        save_matrix_csv(M, path)


def load_matrix(path) -> np.ndarray:
    if str(path).endswith(".json"):
        return load_matrix_json(path)
    return load_matrix_csv(path)


def load_vector(path) -> np.ndarray:
    return load_matrix(path).ravel()
