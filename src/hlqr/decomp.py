"""Decomposability analysis for LQR problems with graph-structured weights.

Decides when the cost weights Q = G1 (x) Q0 and R = G2 (x) R0 admit an
orthogonal coordinate change that splits the global problem into
independent cluster problems, constructs that transformation, and
projects the problem data onto the clusters.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import matkit
from .errors import DimensionMismatch, PreconditionFailed

# Weight of G2/||G2||_F against G1/||G1||_F in the combination whose
# eigenbasis gives the rows of T. Irrational, so that distinct eigenvalue
# pairs of structured (say integer) inputs do not collide in it.
MIX = (np.sqrt(5.0) - 1.0) / 2.0
# Each cluster problem records WINDOW_FACTOR windows per regression unknown.
WINDOW_FACTOR = 2


def _is_integer(x) -> bool:
    """True for an integer scalar (Python or numpy), False for a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_weights(G1: np.ndarray, G2: np.ndarray, tol: float = matkit.DEFAULT_TOL) -> None:
    """Raise ``PreconditionFailed`` unless G1 and G2 are symmetric to within
    ``tol`` (``matkit.is_symmetric``), G1 is positive semidefinite (no
    eigenvalue below -1e-10) and G2 is positive definite."""
    for name, M in (("G1", G1), ("G2", G2)):
        if not matkit.is_symmetric(M, tol):
            raise PreconditionFailed(f"{name} must be symmetric")
    if float(np.linalg.eigvalsh(matkit.symmetrize(G1))[0]) < -1e-10:
        raise PreconditionFailed("G1 must be positive semidefinite")
    if float(np.linalg.eigvalsh(matkit.symmetrize(G2))[0]) <= 0:
        raise PreconditionFailed("G2 must be positive definite")


@dataclass(eq=False)
class LqrSpec:
    """Structured LQR problem: N agents with per-agent state dim n and input
    dim m, weights Q = G1 (x) Q0 (G1 PSD) and R = G2 (x) R0 (G2, Q0, R0 PD)."""

    N: int
    n: int
    m: int
    G1: np.ndarray
    G2: np.ndarray
    Q0: np.ndarray
    R0: np.ndarray

    def __post_init__(self):
        self.G1 = matkit.require_square(self.G1, "G1")
        self.G2 = matkit.require_square(self.G2, "G2")
        self.Q0 = matkit.require_square(self.Q0, "Q0")
        self.R0 = matkit.require_square(self.R0, "R0")
        for name in ("N", "n", "m"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 1):
                raise PreconditionFailed(f"{name} must be a positive integer, got {value!r}")
        if self.G1.shape[0] != self.N or self.G2.shape[0] != self.N:
            raise DimensionMismatch("G1/G2 must be N x N")
        if self.Q0.shape[0] != self.n or self.R0.shape[0] != self.m:
            raise DimensionMismatch("Q0 must be n x n and R0 m x m")
        _check_weights(self.G1, self.G2)
        for name, M in (("Q0", self.Q0), ("R0", self.R0)):
            if not matkit.is_symmetric(M):
                raise PreconditionFailed(f"{name} must be symmetric")
            if float(np.linalg.eigvalsh(matkit.symmetrize(M))[0]) <= 0:
                raise PreconditionFailed(f"{name} must be positive definite")

    @property
    def Q(self) -> np.ndarray:
        return matkit.kron(self.G1, self.Q0)

    @property
    def R(self) -> np.ndarray:
        return matkit.kron(self.G2, self.R0)


@dataclass(eq=False)
class ExcitationConfig:
    """Sum-of-sinusoids exploration signal, one draw per input channel."""

    component_count: int = 12
    frequency_range: tuple[float, float] = (0.1, 10.0)
    amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (_is_integer(self.component_count) and self.component_count >= 1):
            raise PreconditionFailed(
                f"component_count must be an integer >= 1, got {self.component_count!r}")
        try:
            lo, hi = self.frequency_range
        except (TypeError, ValueError):
            raise PreconditionFailed(
                f"frequency_range must be a (low, high) pair, got {self.frequency_range!r}"
            ) from None
        if not 0 < lo <= hi < math.inf:
            raise PreconditionFailed(
                f"frequency_range must be finite, positive and ordered, got {(lo, hi)!r}")
        if not 0 <= self.amplitude < math.inf:
            raise PreconditionFailed(
                f"amplitude must be finite and nonnegative, got {self.amplitude!r}")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise PreconditionFailed(f"seed must be a nonnegative integer, got {self.seed!r}")


def unknown_count(state_dim: int, input_dim: int) -> int:
    """Number of regression unknowns: symmetric P plus a full gain."""
    return state_dim * (state_dim + 1) // 2 + input_dim * state_dim


def regression_bytes(state_dim: int, input_dim: int, window_count: int) -> int:
    """Bytes the collect-and-regress pipeline certainly allocates for one
    problem: the window endpoints and moment integrals of ``collect_batch``
    (x_start, x_end, ixx, ixu), its L x q excitation-rank matrix, and
    L x q of the batch's L x (d1 + q) compression input [Phi | D] in
    ``rl._lockstep_pi``, all float64.

    Every array counted is one the pipeline really allocates, so this is a
    lower bound: a prediction above the host's memory proves the solve
    cannot fit.
    """
    n, m, L = state_dim, input_dim, window_count
    q = unknown_count(n, m)
    return 8 * L * (2 * n + n * n + n * m + 2 * q)


@dataclass(eq=False)
class ClusterProblem:
    """One decoupled LQR instance in transformed coordinates. Without a
    ``window_count`` it records ``WINDOW_FACTOR`` windows per regression
    unknown."""

    state_dim: int
    input_dim: int
    Qblock: np.ndarray
    Rblock: np.ndarray
    initial_gain: np.ndarray | None = None
    excitation: ExcitationConfig | None = None
    sample_interval: float = 0.1
    window_count: int | None = None

    def __post_init__(self):
        self.Qblock = matkit.require_square(self.Qblock, "Qblock")
        self.Rblock = matkit.require_square(self.Rblock, "Rblock")
        if self.Qblock.shape[0] != self.state_dim or self.Rblock.shape[0] != self.input_dim:
            raise DimensionMismatch("Qblock/Rblock sizes must match cluster dims")
        if not 0 < self.sample_interval < math.inf:
            raise PreconditionFailed(
                f"sample_interval must be finite and positive, got {self.sample_interval!r}")
        if self.window_count is None:
            self.window_count = WINDOW_FACTOR * self.q
        if not _is_integer(self.window_count):
            raise PreconditionFailed(
                f"window_count must be an integer, got {self.window_count!r}")
        if self.window_count < self.q:
            raise PreconditionFailed(
                f"window_count {self.window_count} below unknown count {self.q}"
            )

    @property
    def q(self) -> int:
        return unknown_count(self.state_dim, self.input_dim)


@dataclass(eq=False)
class DecompositionPlan:
    """Orthogonal T and the sizes N_1..N_r of its clusters of rows. Cluster
    c's weights phi_c = T_c G1 T_c' and psi_c = T_c G2 T_c' follow from T
    and the spec, and :func:`project_problem` cuts them."""

    T: np.ndarray
    cluster_sizes: tuple[int, ...]

    def __post_init__(self):
        self.T = matkit.require_square(self.T, "T")
        sizes = tuple(self.cluster_sizes)
        if not all(_is_integer(s) and s > 0 for s in sizes):
            raise DimensionMismatch(f"cluster sizes must be positive integers, got {sizes}")
        if sum(sizes) != self.T.shape[0]:
            raise DimensionMismatch(
                f"cluster sizes {sizes} sum to {sum(sizes)}, T has {self.T.shape[0]} rows")
        self.cluster_sizes = tuple(int(s) for s in sizes)

    @property
    def r(self) -> int:
        return len(self.cluster_sizes)

    @property
    def decomposable(self) -> bool:
        return self.r > 1

    def offsets(self) -> list[int]:
        out, acc = [], 0
        for s in self.cluster_sizes:
            out.append(acc)
            acc += s
        return out


@dataclass
class PlanCheck:
    """Residual report from :func:`verify_plan`."""

    orthogonality: float
    off_block_g1: float
    off_block_g2: float
    passed: bool


def kron_lift(T, d: int) -> np.ndarray:
    """The dense T (x) I_d: the reference tests check :func:`lift` against."""
    return matkit.kron(T, np.eye(d))


def lift(T, d: int, X) -> np.ndarray:
    """(T (x) I_d) X, for T of s x N (all or some rows of T) and X of N agent-major
    blocks of d rows, by a reshape (Van Loan, J. Comput. Appl. Math. 123, 2000).
    Both sides: (S (x) I_a) X (U (x) I_b)' = lift(S, a, lift(U, b, X').')."""
    s, N = T.shape
    if X.shape[0] != N * d:
        raise DimensionMismatch(f"X has {X.shape[0]} rows, T (x) I_d has {N * d} columns")
    return (T @ X.reshape(N, -1)).reshape((s * d,) + X.shape[1:])


def _sign_fix_rows(F: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry (the first of a tie)
    is positive."""
    lead = np.take_along_axis(F, np.argmax(np.abs(F), axis=1)[:, None], axis=1)
    return np.where(lead < 0, -F, F)


def single_cluster_plan(N: int) -> DecompositionPlan:
    """The undecomposed problem of N agents as a plan: T = I and one
    cluster (r = 1)."""
    return DecompositionPlan(T=np.eye(N), cluster_sizes=(N,))


def construct_T(G1, G2, tol: float = 1e-8) -> DecompositionPlan:
    """Construct the orthogonal transformation that simultaneously
    block-diagonalizes G1 and G2.

    Follows Murota, Kanno, Kojima & Kojima, "A numerical algorithm for
    block-diagonal decomposition of matrix *-algebras with application to
    semidefinite programming", Japan J. Indust. Appl. Math. 27 (2010):
    the rows of T are the eigenvectors of the generic combination
    G1/||G1||_F + MIX * G2/||G2||_F. Eigenvectors i and j share a cluster
    when |T G1 T'|_ij > tol * ||G1||_F or |T G2 T'|_ij > tol * ||G2||_F,
    closed transitively; clusters are ordered by their first eigenvector
    and made contiguous. Each cluster spans a common invariant subspace,
    so the split is the finest one except where an irreducible block
    appears with multiplicity (G1 = U diag(M, M) U', G2 = U diag(S, S) U'
    with MS != SM gives one cluster of 4, not two of 2). If r = 1, or the
    split misses the tolerances of :func:`verify_plan` that
    :func:`project_problem` enforces, :func:`single_cluster_plan` is
    returned (``decomposable`` is False). The plan holds T and the cluster
    sizes only; :func:`project_problem` cuts the cluster weights.
    """
    if not 0.0 < tol < np.inf:
        raise PreconditionFailed(f"tol must be finite and positive, got {tol!r}")
    G1 = matkit.require_square(G1, "G1")
    G2 = matkit.require_square(G2, "G2")
    if G1.shape != G2.shape:
        raise DimensionMismatch(f"G1 is {G1.shape}, G2 is {G2.shape}")
    _check_weights(G1, G2, tol)
    norm1, norm2 = float(np.linalg.norm(G1)), float(np.linalg.norm(G2))
    # G1 need only be PSD, so G1 = 0 leaves the combination to G2
    G = (G1 / norm1 if norm1 > 0 else G1) + (MIX / norm2) * G2
    F = _sign_fix_rows(np.linalg.eigh(matkit.symmetrize(G))[1].T)
    M1, M2 = F @ G1 @ F.T, F @ G2 @ F.T
    r, labels = matkit.component_labels(
        (np.abs(M1) > tol * norm1) | (np.abs(M2) > tol * norm2))
    if r == 1:
        return single_cluster_plan(len(G1))
    # labels are numbered from each cluster's first row, so a stable sort
    # keeps the clusters, and the rows within each, in eigenvalue order
    perm = np.argsort(labels, kind="stable")
    plan = DecompositionPlan(T=F[perm], cluster_sizes=tuple(np.bincount(labels).tolist()))
    M1, M2 = M1[np.ix_(perm, perm)], M2[np.ix_(perm, perm)]
    # entries at or under the link threshold are dropped, and many of
    # them can leave too much weight off the blocks
    if not _plan_check(plan, M1, M2, norm1, norm2).passed:
        return single_cluster_plan(len(G1))
    return plan


def _transformed(plan: DecompositionPlan, G1: np.ndarray, G2: np.ndarray):
    """M1 = T G1 T', M2 = T G2 T' and the Frobenius norms of G1 and G2."""
    T = plan.T
    if not T.shape == G1.shape == G2.shape:
        raise DimensionMismatch("plan dimensions do not match G1/G2")
    return T @ G1 @ T.T, T @ G2 @ T.T, float(np.linalg.norm(G1)), float(np.linalg.norm(G2))


def _off_block_norm(M: np.ndarray, plan: DecompositionPlan) -> float:
    """Frobenius norm of M off the plan's diagonal blocks, which are
    zeroed in place."""
    for o, size in zip(plan.offsets(), plan.cluster_sizes):
        M[o:o + size, o:o + size] = 0.0
    return float(np.linalg.norm(M))


def verify_plan(plan: DecompositionPlan, G1, G2) -> PlanCheck:
    """Diagnostic residuals for a plan: orthogonality of T and the weight
    of each transformed matrix T G T' off the plan's diagonal blocks."""
    G1 = matkit.require_square(G1, "G1")
    G2 = matkit.require_square(G2, "G2")
    return _plan_check(plan, *_transformed(plan, G1, G2))


def _plan_check(plan: DecompositionPlan, M1: np.ndarray, M2: np.ndarray,
                norm1: float, norm2: float) -> PlanCheck:
    """:func:`verify_plan`'s residuals and pass rule from M1 = T G1 T' and
    M2 = T G2 T' (both overwritten) and the Frobenius norms of G1 and G2."""
    orth = float(np.linalg.norm(plan.T @ plan.T.T - np.eye(plan.T.shape[0])))
    d1 = _off_block_norm(M1, plan)
    d2 = _off_block_norm(M2, plan)
    passed = (
        orth <= matkit.ORTH_TOL
        and d1 <= matkit.DEFAULT_TOL * norm1
        and d2 <= matkit.DEFAULT_TOL * norm2
    )
    return PlanCheck(orth, d1, d2, passed)


def project_problem(
    spec: LqrSpec,
    plan: DecompositionPlan,
    excitation: ExcitationConfig | None = None,
) -> list[ClusterProblem]:
    """Split the structured problem into its cluster problems.

    Forms M1 = T G1 T' and M2 = T G2 T' once: cluster i's weights
    phi_i and psi_i are the diagonal blocks of M1 and M2, and the plan must
    pass :func:`verify_plan`'s check on the same products. Cluster i gets
    Qblock = phi_i (x) Q0 and Rblock = psi_i (x) R0, the default window
    count of ``ClusterProblem`` and an excitation seeded per cluster.
    """
    M1, M2, norm1, norm2 = _transformed(plan, spec.G1, spec.G2)
    # copies of the symmetrized blocks, before _plan_check zeroes them
    weights = [tuple(matkit.symmetrize(M[o:o + s, o:o + s]) for M in (M1, M2))
               for o, s in zip(plan.offsets(), plan.cluster_sizes)]
    if not _plan_check(plan, M1, M2, norm1, norm2).passed:
        raise PreconditionFailed("plan does not verify against this spec")
    problems = []
    for i, (size, (phi, psi)) in enumerate(zip(plan.cluster_sizes, weights)):
        nc, mc = spec.n * size, spec.m * size
        exc = replace(excitation, seed=excitation.seed + i) if excitation else None
        problems.append(
            ClusterProblem(
                state_dim=nc,
                input_dim=mc,
                Qblock=matkit.kron(phi, spec.Q0),
                Rblock=matkit.kron(psi, spec.R0),
                excitation=exc,
            )
        )
    return problems


# ---------------------------------------------------------------------------
# Plan serialization

def plan_to_json(plan: DecompositionPlan) -> dict:
    return {
        "T": matkit.matrix_to_json(plan.T),
        "clusterSizes": list(plan.cluster_sizes),
        "r": plan.r,
        "decomposable": bool(plan.decomposable),
    }


def plan_from_json(obj: dict) -> DecompositionPlan:
    """The plan of ``obj``'s T and cluster sizes; other keys, such as the
    "phi"/"psi" blocks of older plan files, are not read."""
    return DecompositionPlan(T=matkit.matrix_from_json(obj["T"]),
                             cluster_sizes=obj["clusterSizes"])


def save_plan(plan: DecompositionPlan, path) -> None:
    Path(path).write_text(json.dumps(plan_to_json(plan)))


def load_plan(path) -> DecompositionPlan:
    return plan_from_json(json.loads(Path(path).read_text()))
