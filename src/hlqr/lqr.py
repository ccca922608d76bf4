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
    from per-cluster gains k_i of size (m N_i) x (n N_i) by ``decomp.lift``."""
    if len(cluster_gains) != plan.r:
        raise DimensionMismatch(f"expected {plan.r} cluster gains, got {len(cluster_gains)}")
    gains = []
    for size, K in zip(plan.cluster_sizes, cluster_gains):
        K = matkit.as_matrix(K, "cluster gain")
        if K.shape != (m * size, n * size):
            raise DimensionMismatch(
                f"cluster gain shape {K.shape}, expected {(m * size, n * size)}"
            )
        gains.append(K)
    kappa = matkit.block_diag(*gains)
    return lift(plan.T.T, m, lift(plan.T.T, n, kappa.T).T)


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
    """Per-cluster simulation targets for a homogeneous agent model, a
    global (possibly heterogeneous) model, or a black-box callable.

    For a global model the cluster plant is the corresponding diagonal
    block of the transformed dynamics (exact for homogeneous plants, the
    block-diagonal approximation otherwise). For an agent model, clusters
    of equal size share one plant object, I_s (x) (A, B). The closure of
    a black-box plant holds its cluster's rows of T (``decomp.lift``).
    """
    n, m, N = spec.n, spec.m, spec.N
    blocks = [(plan.T[off:off + s], slice(n * off, n * (off + s)))
              for off, s in zip(plan.offsets(), plan.cluster_sizes)]
    if callable(plant) and not hasattr(plant, "A"):
        return [_embedded_cluster(plant, Tc, n, m) for Tc, _ in blocks]
    A = matkit.require_square(plant.A, "plant.A")
    B = matkit.as_matrix(plant.B, "plant.B")
    if A.shape == (n, n) and B.shape == (n, m):
        by_size = {
            s: AgentModel(matkit.kron(np.eye(s), A), matkit.kron(np.eye(s), B))
            for s in set(plan.cluster_sizes)
        }
        return [by_size[s] for s in plan.cluster_sizes]
    if A.shape == (n * N, n * N) and B.shape == (n * N, m * N):
        # T on the left once: per cluster, each product would read all of A
        TA, TB = lift(plan.T, n, A), lift(plan.T, n, B)
        return [AgentModel(lift(Tc, n, TA[rows].T).T, lift(Tc, m, TB[rows].T).T)
                for Tc, rows in blocks]
    raise DimensionMismatch("plant dimensions match neither one agent nor the global system")


def hierarchical_model_based(spec: LqrSpec, plan: DecompositionPlan, plant):
    """One Riccati solve per cluster plant (``cluster_plants``) and weights
    (``project_problem``), reassembled: the global LQR gain for identical
    agents. Returns (K, [(P_i, k_i)]); a callable plant raises PreconditionFailed."""
    if not hasattr(plant, "A"):
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
