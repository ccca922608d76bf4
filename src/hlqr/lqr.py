"""Model-based LQR machinery: Kleinman policy iteration (the oracle the
data-driven solver is validated against), cost evaluation, cluster plants,
and one Riccati solve per cluster reassembled into the global gain."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import matkit
from .decomp import DecompositionPlan, LqrSpec, lift, project_problem
from .errors import (
    DimensionMismatch,
    K0NotStabilizing,
    MaxIterExceeded,
    PreconditionFailed,
    SolverDiverged,
)

KLEINMAN_TOL = 1e-10
KLEINMAN_MAX_ITER = 50


@dataclass(eq=False)
class AgentModel:
    """State-space pair (A, B); also used for lifted cluster-level models."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.A = matkit.require_square(self.A, "A")
        self.B = matkit.as_matrix(self.B, "B")
        if self.B.shape[0] != self.A.shape[0]:
            raise DimensionMismatch(f"A is {self.A.shape}, B is {self.B.shape}")


def kleinman_pi(A, B, Q, R, K0):
    """Kleinman policy iteration from a stabilizing gain K0.

    Each step (``matkit.kleinman_steps``) solves the closed-loop Lyapunov
    equation (A - B K)' P + P (A - B K) + Q + K' R K = 0 and updates
    K <- R^-1 B' P; stops when ||P_k - P_(k-1)||_F <= KLEINMAN_TOL or the
    difference stagnates at the round-off floor 1e-12 * ||P_k||_F, and
    gives up after KLEINMAN_MAX_ITER steps. The final pair meets the same
    Riccati residual bound as the direct solver.

    Returns (P, K, iterates) where iterates is the list of (P_k, K_(k+1))
    pairs produced along the way.
    """
    A = matkit.require_square(A, "A")
    B = matkit.as_matrix(B, "B")
    Q = matkit.require_square(Q, "Q")
    R = matkit.require_square(R, "R")
    K0 = matkit.as_matrix(K0, "K0")
    if matkit.spectral_abscissa(A - B @ K0) >= 0:
        raise K0NotStabilizing("A - B K0 is not Hurwitz")
    iterates = []
    P_prev = None
    for P, K in islice(matkit.kleinman_steps(A, B, Q, R, K0), KLEINMAN_MAX_ITER):
        iterates.append((P, K))
        if P_prev is not None:
            diff = float(np.linalg.norm(P - P_prev))
            if diff <= max(KLEINMAN_TOL, 1e-12 * float(np.linalg.norm(P))):
                bound = 1e-8 * np.linalg.norm(P) * max(1.0, np.linalg.norm(A)) ** 2
                if matkit.are_residual(A, B, Q, R, P) > bound:
                    raise SolverDiverged("converged iterate misses the residual bound")
                return P, K, iterates
        P_prev = P
    raise MaxIterExceeded(f"no convergence within {KLEINMAN_MAX_ITER} iterations")


def assemble_gain(plan: DecompositionPlan, cluster_gains, n: int, m: int) -> np.ndarray:
    """Reassemble the global gain K = (T' (x) I_m) diag(k_1..k_r) (T (x) I_n)
    from per-cluster gains k_i of size (m N_i) x (n N_i), so diag(k_1..k_r)
    is never formed. Any cluster-block operator lifts the same way: cluster
    plants A_c or Riccati solutions P_c by ``assemble_gain(plan, A_c, n, n)``,
    input matrices B_c by ``assemble_gain(plan, B_c, m, n)``. Per cluster
    size s, the gains of that size are stacked and their rows k_c (T_c (x)
    I_n), with T_c the cluster's s rows of T, come from one batched product;
    one ``decomp.lift`` by those rows of T adds the size class's share of K."""
    if len(cluster_gains) != plan.r:
        raise DimensionMismatch(f"expected {plan.r} cluster gains, got {len(cluster_gains)}")
    T, N = plan.T, plan.T.shape[1]
    classes: dict[int, list[int]] = {}
    for c, size in enumerate(plan.cluster_sizes):
        classes.setdefault(size, []).append(c)
    stacks = {s: _gain_stack([cluster_gains[c] for c in members], m * s, n * s)
              for s, members in classes.items()}
    offsets = np.asarray(plan.offsets())
    K = None
    for s, members in classes.items():
        Tc = T[(offsets[members][:, None] + np.arange(s)).ravel()]
        # entry (c, a, p, j, q) = sum_b T_c[b, j] k_c[(a, p), (b, q)]
        lifted = (Tc.reshape(len(members), s, N).swapaxes(1, 2)[:, None, None]
                  @ stacks[s].reshape(len(members), s, m, s, n))
        part = lift(Tc.T, m, lifted.reshape(-1, N * n))
        K = part if K is None else np.add(K, part, out=K)
    return K


def _gain_stack(gains, rows: int, cols: int) -> np.ndarray:
    """The cluster gains of one size as a finite (count, rows, cols) stack.
    A gain that is not 2-d, not finite or not rows x cols raises the error
    ``matkit.as_matrix`` or the shape check gives it alone."""
    try:
        stack = np.asarray(gains, dtype=float)
    except ValueError:  # ragged
        stack = None
    if (stack is not None and stack.shape == (len(gains), rows, cols)
            and np.isfinite(stack).all()):
        return stack
    for K in gains:
        K = matkit.as_matrix(K, "cluster gain")
        if K.shape != (rows, cols):
            raise DimensionMismatch(f"cluster gain {K.shape}, expected {(rows, cols)}")
    return np.stack([matkit.as_matrix(K) for K in gains])


def _embedded_cluster(f_global, Tc: np.ndarray, n: int, m: int):
    """Black-box cluster dynamics from a black-box global plant: map the
    cluster state/input back to agent coordinates (the transformed state
    is zero outside the cluster), evaluate the plant, and keep the cluster
    rows of the transformed derivative. ``Tc`` is the cluster's block of
    rows of T; n and m are the agent state and input dims."""

    def dyn(xi, v):
        dx = np.asarray(f_global(lift(Tc.T, n, xi), lift(Tc.T, m, v)), dtype=float).ravel()
        return lift(Tc, n, dx)

    return dyn


def cluster_plants(plant, plan: DecompositionPlan, spec: LqrSpec):
    """Per-cluster simulation targets for a homogeneous agent model, the
    agent blocks (A_i, B_i) of a heterogeneous model, or a black-box callable.

    Clusters of equal size share one agent model's plant, I_s (x) (A, B). From
    agent blocks, the cluster with rows T_c of T gets the diagonal block
    sum_i T_c[:, i] T_c[:, i]' (x) (A_i, B_i) of the transformed dynamics (exact
    for identical agents, the block-diagonal approximation otherwise) by one
    broadcast product and one matmul, never reading the dense A/B. Coupled
    global dynamics go in as a callable, whose closure per cluster holds T_c."""
    n, m, N = spec.n, spec.m, spec.N
    rows = [plan.T[off:off + s] for off, s in zip(plan.offsets(), plan.cluster_sizes)]
    if callable(plant) and not hasattr(plant, "A"):
        return [_embedded_cluster(plant, Tc, n, m) for Tc in rows]
    if hasattr(plant, "A_blocks"):
        A, B = (np.asarray(X, dtype=float) for X in (plant.A_blocks, plant.B_blocks))
        if A.shape != (N, n, n) or B.shape != (N, n, m):
            raise DimensionMismatch(f"agent blocks {A.shape}, {B.shape}; N, n, m = {N, n, m}")

        def block(Tc, X):  # entry ((a, p), (b, q)) = sum_i Tc[a, i] Tc[b, i] X_i[p, q]
            lifted = Tc @ (Tc.T[:, None, :, None] * X[:, :, None, :]).reshape(N, -1)
            return lifted.reshape(n * len(Tc), -1)
        return [AgentModel(block(Tc, A), block(Tc, B)) for Tc in rows]
    A = matkit.require_square(plant.A, "plant.A")
    B = matkit.as_matrix(plant.B, "plant.B")
    if A.shape != (n, n) or B.shape != (n, m):
        raise DimensionMismatch(f"plant {A.shape}, {B.shape} is not one agent's ({n}, {m})")
    by_size = {s: AgentModel(matkit.kron(np.eye(s), A), matkit.kron(np.eye(s), B))
               for s in set(plan.cluster_sizes)}
    return [by_size[s] for s in plan.cluster_sizes]


def hierarchical_model_based(spec: LqrSpec, plan: DecompositionPlan, plant):
    """One Riccati solve per cluster plant (``cluster_plants``) and weights
    (``project_problem``), reassembled: the global LQR gain for identical
    agents. Returns (K, [(P_i, k_i)]); a callable plant raises PreconditionFailed.
    Agent blocks are probed first, so a ``HeteroModel``'s dense A/B is not built."""
    if not (hasattr(plant, "A_blocks") or hasattr(plant, "A")):
        raise PreconditionFailed("a model-based solve needs the plant's A/B matrices")
    solved = [matkit.solve_are(c.A, c.B, p.Qblock, p.Rblock) for p, c in
              zip(project_problem(spec, plan), cluster_plants(plant, plan, spec))]
    return assemble_gain(plan, [k for _, k in solved], spec.n, spec.m), solved


def evaluate_cost(Acl, Qeff, x0) -> float:
    """Infinite-horizon quadratic cost x0' W x0 with
    Acl' W + W Acl + Qeff = 0; Acl must be Hurwitz and Qeff PSD."""
    Acl = matkit.require_square(Acl, "Acl")
    Qeff = matkit.require_square(Qeff, "Qeff")
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != Acl.shape[0]:
        raise DimensionMismatch(f"x0 has size {x0.size}, expected {Acl.shape[0]}")
    evals = np.linalg.eigvalsh(matkit.symmetrize(Qeff))
    if evals[0] < -1e-8 * max(1.0, float(evals[-1])):
        raise PreconditionFailed("Qeff must be positive semidefinite")
    W = matkit.solve_lyapunov(Acl, matkit.symmetrize(Qeff))
    return float(x0 @ W @ x0)
