"""Model-based LQR machinery: Kleinman policy iteration (the oracle the
data-driven solver is validated against), quadratic cost evaluation, and
assembly of the global gain from per-cluster gains."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import matkit
from .decomp import DecompositionPlan, kron_lift
from .errors import (
    DimensionMismatch,
    K0NotStabilizing,
    MaxIterExceeded,
    PreconditionFailed,
    SolverDiverged,
)


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


def kleinman_pi(A, B, Q, R, K0, tol: float = 1e-10, max_iter: int = 50):
    """Kleinman policy iteration from a stabilizing gain K0.

    Each step (``matkit.kleinman_steps``) solves the closed-loop Lyapunov
    equation (A - B K)' P + P (A - B K) + Q + K' R K = 0 and updates
    K <- R^-1 B' P; stops when ||P_k - P_(k-1)||_F <= tol, or when the
    difference stagnates at the round-off floor 1e-12 * ||P_k||_F (an
    absolute tol below that floor is not representable). The final pair
    meets the same Riccati residual bound as the direct solver.

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
    for P, K in islice(matkit.kleinman_steps(A, B, Q, R, K0), max_iter):
        iterates.append((P, K))
        if P_prev is not None:
            diff = float(np.linalg.norm(P - P_prev))
            if diff <= max(tol, 1e-12 * float(np.linalg.norm(P))):
                bound = 1e-8 * np.linalg.norm(P) * max(1.0, np.linalg.norm(A)) ** 2
                if matkit.are_residual(A, B, Q, R, P) > bound:
                    raise SolverDiverged("converged iterate misses the residual bound")
                return P, K, iterates
        P_prev = P
    raise MaxIterExceeded(f"no convergence within {max_iter} iterations")


def assemble_gain(plan: DecompositionPlan, cluster_gains, n: int, m: int) -> np.ndarray:
    """Reassemble the global gain K = (T' (x) I_m) diag(k_1..k_r) (T (x) I_n)
    from per-cluster gains k_i of size (m N_i) x (n N_i)."""
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
    return kron_lift(plan.T, m).T @ kappa @ kron_lift(plan.T, n)


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
