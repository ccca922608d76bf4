"""Dense real linear-algebra kernels shared by the rest of the package.

Kronecker products, symmetric eigendecompositions, connected components
and sparsity-pattern partitions, block-diagonal assembly, a Lyapunov
solver, the Riccati solver (structure-preserving doubling on n-square
blocks, Chu, Fan & Lin 2005, polished by Kleinman steps), and the matrix
file formats used by the CLI. Everything operates on plain float
``numpy`` arrays and is pure: no globals, safe to call concurrently.
Only ``solve_lyapunov`` (Bartels-Stewart) needs scipy; it imports
``scipy.linalg`` when first called, so importing this module loads numpy
alone.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

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
# Kleinman (Newton) steps solve_are may take to polish its doubling seed.
NEWTON_STEPS = 8
# Doubling stops when max|H_k+1 - H_k| <= SDA_RTOL * max|H_k+1|. After k
# doublings the error is ~|mu|^(2^k) for the Cayley-transformed spectrum mu,
# so 60 doublings converge unless 1 - |mu| is below ~1e-16, where mu is on
# the unit circle to double precision (|lambda|/gamma beyond ~1e16).
SDA_RTOL = 1e-15
SDA_MAX_DOUBLINGS = 60


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
    if not np.isfinite(A).all():
        raise PreconditionFailed(f"{name} has non-finite entries")
    return A


def require_square(M, name: str = "matrix") -> np.ndarray:
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    if A.size == 0:
        raise DimensionMismatch(f"{name} must not be empty, got shape {A.shape}")
    return A


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def is_symmetric(M, tol: float = DEFAULT_TOL) -> bool:
    A = require_square(M)
    return float(np.linalg.norm(A - A.T)) <= tol * float(np.linalg.norm(A))


def spectral_abscissa(A) -> float:
    """Largest real part over the eigenvalues of A."""
    return float(np.max(np.linalg.eigvals(require_square(A, "A")).real))


def kron(A, B) -> np.ndarray:
    """Kronecker product: block (i, j) of the result is A[i, j] * B. One
    broadcast product, entry for entry that of ``np.kron`` without its
    per-call overhead on small blocks."""
    A, B = as_matrix(A, "A"), as_matrix(B, "B")
    (p, q), (s, t) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(p * s, q * t)


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


def component_labels(adj: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the undirected graph with symmetric dense
    boolean adjacency ``adj``: (count, labels), labels numbered in order of
    each component's smallest vertex, as scipy's ``connected_components``
    numbers them. Breadth-first, one boolean row gather per frontier."""
    labels = np.full(adj.shape[0], -1)
    count = 0
    for seed in range(adj.shape[0]):
        if labels[seed] >= 0:
            continue
        frontier = np.array([seed])
        while frontier.size:
            labels[frontier] = count
            frontier = np.flatnonzero(adj[frontier].any(axis=0) & (labels < 0))
        count += 1
    return count, labels


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of the 2-d ``blocks``, zeros elsewhere."""
    rows, cols = np.sum([b.shape for b in blocks], axis=0)
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def support_partition(M, tol: float = 1e-9) -> list[list[int]]:
    """Connected components of the undirected support graph of M.

    Vertices i != j are adjacent iff |M[i,j]| + |M[j,i]| > tol. Returns
    sorted 0-based index groups, ordered by smallest member.
    """
    A = require_square(M, "M")
    adj = (np.abs(A) + np.abs(A.T)) > tol
    np.fill_diagonal(adj, False)
    count, labels = component_labels(adj)
    return [np.flatnonzero(labels == c).tolist() for c in range(count)]


def solve_lyapunov(A, W) -> np.ndarray:
    """Solve A'X + XA + W = 0 for symmetric X; A must be Hurwitz.

    Bartels-Stewart through ``scipy.linalg``, imported on the first call."""
    from scipy.linalg import solve_continuous_lyapunov

    A = require_square(A, "A")
    W = require_square(W, "W")
    if A.shape != W.shape:
        raise DimensionMismatch(f"A is {A.shape}, W is {W.shape}")
    if not is_symmetric(W):
        raise NotSymmetric("W must be symmetric")
    if spectral_abscissa(A) >= 0:
        raise NotHurwitz("A must be Hurwitz")
    X = symmetrize(solve_continuous_lyapunov(A.T, -symmetrize(W)))
    residual = float(np.linalg.norm(A.T @ X + X @ A + W))
    bound = DEFAULT_TOL * (np.linalg.norm(X) * np.linalg.norm(A) + np.linalg.norm(W))
    if residual > max(bound, np.finfo(float).tiny):
        raise SolverDiverged(f"Lyapunov residual {residual:.3e} above {bound:.3e}")
    return X


def numerical_rank(M) -> int:
    """Count of singular values above RANK_RTOL times the largest."""
    s = np.linalg.svd(as_matrix(M, "M"), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def ctrb_rank(A, B) -> int:
    """Numerical rank of the Krylov stack [B, AB, A^2 B, ...].

    B is ranked alone first; only if its rank is below n is A scaled to
    unit spectral norm (a scaling of A or of the whole stack changes
    neither its column space nor the relative rank threshold) so high
    powers neither overflow nor swamp the threshold. The stack is
    extended only until its rank stalls, which by the Krylov subspace
    property is already final.
    """
    A = require_square(A, "A")
    B = as_matrix(B, "B")
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"A is {A.shape}, B is {B.shape}")
    n = A.shape[0]
    block = stack = B
    rank = numerical_rank(stack)
    if rank >= n:
        return rank
    scale = float(np.linalg.norm(A, 2))
    As = A / scale if scale > 0 else A
    for _ in range(n - 1):
        block = As @ block
        stack = np.hstack([stack, block])
        new_rank = numerical_rank(stack)
        if new_rank == rank:
            break
        rank = new_rank
        if rank >= n:
            break
    return rank


def obsv_rank(C, A) -> int:
    """Numerical rank of the stacked observability matrix, by duality."""
    return ctrb_rank(as_matrix(A, "A").T, as_matrix(C, "C").T)


def _psd_floor(values: np.ndarray) -> float:
    """Magnitude below which an eigenvalue of a PSD matrix counts as zero:
    DEFAULT_TOL times the largest |eigenvalue| (ascending ``values``).
    Raises ``PreconditionFailed`` when the smallest is below minus that."""
    floor = DEFAULT_TOL * max(float(np.max(np.abs(values))), np.finfo(float).tiny)
    if values[0] < -floor:
        raise PreconditionFailed(f"matrix is not PSD (min eig {values[0]:.3e})")
    return floor


def sqrtm_psd(M) -> np.ndarray:
    """Symmetric PSD square root.

    Eigenvalues below ``_psd_floor`` count as zero (taking the square root
    of round-off noise would otherwise promote it across rank thresholds);
    eigenvalues below minus that floor are rejected.
    """
    e = sym_eig(M)
    vals = np.where(e.values < _psd_floor(e.values), 0.0, e.values)
    return symmetrize((e.vectors * np.sqrt(vals)) @ e.vectors.T)


def are_residual(A, B, Q, R, P) -> float:
    """Frobenius norm of A'P + PA + Q - P B R^-1 B' P."""
    BtP = as_matrix(B).T @ P
    return float(np.linalg.norm(A.T @ P + P @ A + Q - BtP.T @ np.linalg.solve(R, BtP)))


def kleinman_steps(A, B, Q, R, K):
    """Kleinman (Newton) steps on the Riccati equation from a stabilizing
    gain K, without end: each solves the closed-loop Lyapunov equation
    (A - BK)'P + P(A - BK) + Q + K'RK = 0 and yields (P, K+) with
    K+ = R^-1 B'P, the gain of the next step. The caller stops it."""
    while True:
        P = solve_lyapunov(A - B @ K, symmetrize(Q + K.T @ R @ K))
        K = np.linalg.solve(R, B.T @ P)
        yield P, K


def _sda_riccati(A: np.ndarray, G: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, str]:
    """Stabilizing solution of A'P + PA + Q - PGP = 0 by the structure-
    preserving doubling algorithm (Chu, Fan & Lin, Linear Algebra Appl.
    396, 2005), with a summary of the run for error messages.

    The Cayley transform with gamma = 1 + ||A||_1 > rho(A) (so A - gamma I
    is nonsingular) gives A_0, G_0, H_0; each doubling inverts
    S_k = I + G_k H_k once, multiplies the inverse into A_k and G_k (an
    inverse and two products take less time than one solve against the 2n
    columns of [A_k G_k], whose triangular stage is slow per flop), and
    squares the transformed spectrum, so H_k converges quadratically to P.
    It stops when max|dH| <= SDA_RTOL * max|H|; a singular S_k, a
    non-finite or zero iterate, or SDA_MAX_DOUBLINGS doublings without
    convergence raises ``SolverDiverged``.
    """
    n = A.shape[0]
    eye = np.eye(n)
    gamma = 1.0 + float(np.linalg.norm(A, 1))
    doublings, step = 0, np.inf

    def summary() -> str:
        return f"gamma {gamma:.3g}, {doublings} doublings, last relative step {step:.1e}"

    def diverged(phase: str) -> SolverDiverged:
        return SolverDiverged(f"Riccati doubling {phase} ({summary()})")

    # Overflow shows up as a non-finite or zero iterate, which is checked.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            Ag_inv = np.linalg.inv(A - gamma * eye)
            AgG = Ag_inv @ G
            W_inv = np.linalg.inv(A.T - gamma * eye + Q @ AgG)
            Ak = eye + 2.0 * gamma * W_inv.T
            Gk = 2.0 * gamma * (AgG @ W_inv)
            Hk = 2.0 * gamma * (W_inv @ (Q @ Ag_inv))
            while doublings < SDA_MAX_DOUBLINGS:
                doublings += 1
                S_inv = np.linalg.inv(eye + Gk @ Hk)
                X = S_inv @ Ak
                dH = Ak.T @ (Hk @ X)
                Gk = Gk + Ak @ (S_inv @ Gk) @ Ak.T
                Ak = Ak @ X
                Hk = Hk + dH
                dmax, hmax = abs(dH).max(), abs(Hk).max()
                if not (0.0 < hmax < np.inf and dmax < np.inf):
                    raise diverged("breakdown: non-finite or zero iterate")
                step = dmax / hmax
                if step <= SDA_RTOL:
                    return symmetrize(Hk), summary()
        except np.linalg.LinAlgError as exc:
            raise diverged(f"breakdown: {exc}") from exc
    raise diverged(f"reached the cap of {SDA_MAX_DOUBLINGS} doublings")


def solve_are(A, B, Q, R):
    """Solve the continuous algebraic Riccati equation.

    Returns (P, K) with P symmetric positive definite, K = R^-1 B' P and
    A - BK Hurwitz, meeting the residual bound
    ||A'P + PA + Q - P B R^-1 B' P||_F <= DEFAULT_TOL * ||P||_F * max(1, ||A||_F)^2
    (an ||A||_F^2 that overflows raises ``SolverDiverged`` before any doubling).
    P is seeded by structure-preserving doubling on n-square blocks (Chu,
    Fan & Lin 2005; see ``_sda_riccati`` for its gamma and stop rules);
    while the bound is missed, up to ``NEWTON_STEPS`` Kleinman (Newton)
    steps of ``kleinman_steps`` polish it. A non-stabilizing gain, a bound
    still missed after those steps, or a numerical breakdown raises
    ``SolverDiverged`` naming the phase, gamma, the doublings taken and the
    last relative step.

    The preconditions are checked in order: R symmetric positive definite,
    (A, B) controllable (``ctrb_rank``), then Q symmetric (else
    ``NotSymmetric``) and PSD, and (Q^1/2, A) observable. When Q is
    positive definite beyond the ``sqrtm_psd`` floor, Q^1/2 has full rank
    and the pair is observable, so its spectrum alone decides; only a
    singular PSD Q builds Q^1/2 and ranks the observability stack."""
    A = require_square(A, "A")
    B = as_matrix(B, "B")
    Q = require_square(Q, "Q")
    R = require_square(R, "R")
    n = A.shape[0]
    if B.shape[0] != n or Q.shape[0] != n or R.shape[0] != B.shape[1]:
        raise DimensionMismatch("inconsistent ARE dimensions")
    if not is_symmetric(R) or np.min(np.linalg.eigvalsh(symmetrize(R))) <= 0:
        raise PreconditionFailed("R must be symmetric positive definite")
    if ctrb_rank(A, B) < n:
        raise PreconditionFailed("(A, B) is not controllable")
    if not is_symmetric(Q):
        raise NotSymmetric(f"Q: asymmetry exceeds {DEFAULT_TOL:g} * ||Q||_F")
    q_eigs = np.linalg.eigvalsh(symmetrize(Q))
    # Q^1/2 keeps exactly the eigenvalues at or above the floor, each with a
    # singular value >= 1e-4 relative, so if none is dropped it has rank n
    if q_eigs[0] < _psd_floor(q_eigs) and obsv_rank(sqrtm_psd(Q), A) < n:
        raise PreconditionFailed("(Q^1/2, A) is not observable")

    with np.errstate(over="ignore"):  # an overflowing ||A||_F is refused below
        a_norm = max(1.0, float(np.linalg.norm(A)))
    if a_norm * a_norm == np.inf:
        raise SolverDiverged(f"||A||_F^2 overflows (max |A_ij| = {abs(A).max():.3g}): "
                             "the Riccati residual bound is not finite")
    a_scale = a_norm ** 2
    G = as_matrix(B @ np.linalg.solve(R, B.T), "Hamiltonian")
    P, seed_run = _sda_riccati(A, G, Q)
    try:
        K = np.linalg.solve(R, B.T @ P)
        polish = islice(kleinman_steps(A, B, Q, R, K), NEWTON_STEPS)
        for step, (P, K) in enumerate(chain([(P, K)], polish)):
            if spectral_abscissa(A - B @ K) >= 0:
                raise SolverDiverged(
                    f"Newton polish: Riccati gain does not stabilize A - BK after "
                    f"{step} Newton steps (doubling seed: {seed_run})"
                )
            if are_residual(A, B, Q, R, P) <= DEFAULT_TOL * float(np.linalg.norm(P)) * a_scale:
                return P, K
    except np.linalg.LinAlgError as exc:
        raise SolverDiverged(
            f"Newton polish broke down: {exc} (doubling seed: {seed_run})"
        ) from exc
    raise SolverDiverged(
        f"Newton polish: Riccati residual bound missed after {NEWTON_STEPS} Newton steps "
        f"(doubling seed: {seed_run})"
    )


# ---------------------------------------------------------------------------
# Matrix file formats: headerless CSV and {"rows", "cols", "data"} JSON.
# Both round-trip float64 exactly when written with 17 significant digits.

def matrix_to_json(M) -> dict:
    A = as_matrix(M, "matrix")
    return {"rows": A.shape[0], "cols": A.shape[1], "data": [float(v) for v in A.ravel()]}


def matrix_from_json(obj) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=float)
    if data.size != rows * cols:
        raise DimensionMismatch(f"expected {rows * cols} entries, got {data.size}")
    return data.reshape(rows, cols)


def load_matrix_json(path) -> np.ndarray:
    return matrix_from_json(json.loads(Path(path).read_text()))


def load_matrix_csv(path) -> np.ndarray:
    rows = [line for line in Path(path).read_text().splitlines() if line.split("#")[0].strip()]
    if not rows:
        raise ValueError("the file holds no data")
    return np.loadtxt(rows, delimiter=",", ndmin=2, dtype=float)


def load_matrix(path) -> np.ndarray:
    if str(path).endswith(".json"):
        return load_matrix_json(path)
    return load_matrix_csv(path)


def load_vector(path) -> np.ndarray:
    return load_matrix(path).ravel()
