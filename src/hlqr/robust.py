"""Certification of the hierarchically designed gain on a non-homogeneous
plant: a Lyapunov/LMI stability test, a small-gain test on the
heterogeneity mismatch loop, and an H2 performance bound, plus the
H-infinity / H2 norm machinery they need."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from . import matkit
from .decomp import DecompositionPlan, LqrSpec, kron_lift
from .errors import (
    DimensionMismatch,
    NonzeroFeedthrough,
    NotHurwitz,
    PreconditionFailed,
    SolverDiverged,
)
from .lqr import controllability_ok, evaluate_cost

HINF_AXIS_RTOL = 1e-8
HINF_MAX_ROUNDS = 30


@dataclass(eq=False)
class HeteroModel:
    """Per-agent state-space pairs (A_i, B_i) with the assembled
    block-diagonal global matrices ``A`` and ``B``, built once."""

    A_blocks: list[np.ndarray]
    B_blocks: list[np.ndarray]
    A: np.ndarray = field(init=False, repr=False)
    B: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.A_blocks or len(self.A_blocks) != len(self.B_blocks):
            raise DimensionMismatch("need matching, nonempty A/B block lists")
        self.A_blocks = [matkit.require_square(A, "A_i") for A in self.A_blocks]
        self.B_blocks = [matkit.as_matrix(B, "B_i") for B in self.B_blocks]
        shape_a, shape_b = self.A_blocks[0].shape, self.B_blocks[0].shape
        for A, B in zip(self.A_blocks, self.B_blocks):
            if A.shape != shape_a or B.shape != shape_b or B.shape[0] != shape_a[0]:
                raise DimensionMismatch("all agents must share state/input dimensions")
        self.A = sla.block_diag(*self.A_blocks)
        self.B = sla.block_diag(*self.B_blocks)

    @property
    def N(self) -> int:
        return len(self.A_blocks)

    @property
    def n(self) -> int:
        return self.A_blocks[0].shape[0]

    @property
    def m(self) -> int:
        return self.B_blocks[0].shape[1]


@dataclass(eq=False)
class LtiSystem:
    """State-space realization (A, B, C, D); D defaults to zero."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray | None = None

    def __post_init__(self):
        self.A = matkit.require_square(self.A, "A")
        self.B = matkit.as_matrix(self.B, "B")
        self.C = matkit.as_matrix(self.C, "C")
        if self.D is None:
            self.D = np.zeros((self.C.shape[0], self.B.shape[1]))
        self.D = matkit.as_matrix(self.D, "D")
        n = self.A.shape[0]
        if self.B.shape[0] != n or self.C.shape[1] != n:
            raise DimensionMismatch("B/C do not conform to A")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise DimensionMismatch("D does not conform to B/C")


@dataclass(eq=False)
class PerformanceBound:
    """Outputs of the H2 performance bound J2 <= J2_bar + alpha * epsilon."""

    epsilon: float
    alpha: float
    j2_bar: float
    bound: float
    actual_j2: float
    holds: bool


@dataclass(eq=False)
class RobustReport:
    lmi_max_eig: float
    small_gain_lhs: float | None
    small_gain_rhs: float | None
    epsilon: float | None
    alpha: float | None
    j2_bar: float | None
    bound: float | None
    actual_j2: float | None
    gain_gap: float
    verdicts: dict

    def to_json(self) -> dict:
        return {
            "lmiMaxEig": self.lmi_max_eig,
            "smallGainLhs": self.small_gain_lhs,
            "smallGainRhs": self.small_gain_rhs,
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "j2Bar": self.j2_bar,
            "bound": self.bound,
            "actualJ2": self.actual_j2,
            "gainGap": self.gain_gap,
            "verdicts": self.verdicts,
        }


def transformed_pair(model: HeteroModel, plan: DecompositionPlan):
    """Transformed dynamics and their heterogeneity mismatches:
    Ahat = T_n' A T_n, Bhat = T_n' B T_m, Atilde = A - Ahat,
    Btilde = B - Bhat (both mismatches vanish for identical agents)."""
    Tn = kron_lift(plan.T, model.n)
    Tm = kron_lift(plan.T, model.m)
    A, B = model.A, model.B
    Ahat = Tn.T @ A @ Tn
    Bhat = Tn.T @ B @ Tm
    return Ahat, Bhat, A - Ahat, B - Bhat


def hetero_lift(model: HeteroModel, plan: DecompositionPlan, spec: LqrSpec):
    """Solve the transformed design problem for a heterogeneous plant.

    Returns (Atilde, Btilde, Ahat_cl, Phat, K) where (Phat, K) solve the
    Riccati equation of the transformed pair with the spec's weights and
    Ahat_cl is its closed loop (confirmed Hurwitz). Requires the global
    pair controllable and Q positive definite.
    """
    if not controllability_ok(model.A, model.B):
        raise PreconditionFailed("(A, B) of the heterogeneous plant is not controllable")
    if float(np.min(np.linalg.eigvalsh(matkit.symmetrize(spec.G1)))) <= 0:
        raise PreconditionFailed("Q must be positive definite (G1 must be PD)")
    Ahat, Bhat, Atilde, Btilde = transformed_pair(model, plan)
    Phat, K = matkit.solve_are(Ahat, Bhat, spec.Q, spec.R)
    Ahat_cl = Ahat - Bhat @ K
    if matkit.spectral_abscissa(Ahat_cl) >= 0:
        raise NotHurwitz("transformed closed loop is not Hurwitz")
    return Atilde, Btilde, Ahat_cl, Phat, K


def lmi_stability_check(a_tilde, b_tilde, p_hat, Q, R, b_hat):
    """Sufficient LMI stability test for the heterogeneous closed loop:

        P At + At' P - P Bt R^-1 Bh' P - P Bh R^-1 Bt' P - Q
            - P Bh R^-1 Bh' P  <  0

    with At/Bt the heterogeneity mismatches and Bh the transformed input
    matrix. The left side is exactly the derivative matrix of the
    Lyapunov candidate x' P x along the true closed loop (the Riccati
    identity supplies the last two terms), so a pass certifies stability
    with no false positives; failures are inconclusive. Returns (max
    eigenvalue of the symmetrized left side, pass flag).
    """
    P = matkit.require_square(p_hat, "p_hat")

    def quad(left, right):
        return P @ left @ np.linalg.solve(R, right.T @ P)

    M = (
        P @ a_tilde
        + a_tilde.T @ P
        - quad(b_tilde, b_hat)
        - quad(b_hat, b_tilde)
        - Q
        - quad(b_hat, b_hat)
    )
    max_eig = float(np.max(np.linalg.eigvalsh(matkit.symmetrize(M))))
    return max_eig, max_eig < 0


def _sigma_max_at(T, CU, UhB, D, omega: float) -> float:
    """sigma_max(G(jw)) from the Schur factors A = U T U^H:
    G(jw) = (C U) (jw I - T)^-1 (U^H B) + D, one triangular solve."""
    shifted = -T
    shifted[np.diag_indices_from(shifted)] += 1j * omega
    G = CU @ sla.solve_triangular(shifted, UhB) + D
    return float(np.linalg.svd(G, compute_uv=False)[0])


def _axis_crossings(sys: LtiSystem, gamma: float) -> np.ndarray:
    """Frequencies w >= 0 at which sigma_max(G(jw)) crosses the level
    gamma > ||D||: the imaginary parts of the imaginary-axis eigenvalues
    of the Hamiltonian at gamma, sorted (empty when there is none)."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    Rg = gamma * gamma * np.eye(D.shape[1]) - D.T @ D
    if float(np.min(np.linalg.eigvalsh(matkit.symmetrize(Rg)))) <= 0:
        raise SolverDiverged("H-infinity test level is not above ||D||")
    RiBt = np.linalg.solve(Rg, B.T)
    RiDtC = np.linalg.solve(Rg, D.T @ C)
    Abar = A + B @ RiDtC
    H = np.block(
        [
            [Abar, B @ RiBt],
            [-C.T @ (np.eye(D.shape[0]) + D @ np.linalg.solve(Rg, D.T)) @ C, -Abar.T],
        ]
    )
    try:
        eig = np.linalg.eigvals(H)
    except np.linalg.LinAlgError as exc:
        raise SolverDiverged(f"Hamiltonian eigenvalues failed: {exc}") from exc
    scale = max(1.0, float(np.max(np.abs(eig))))
    on_axis = np.abs(eig.real) <= HINF_AXIS_RTOL * scale
    return np.unique(np.abs(eig.imag[on_axis]))


def hinf_norm(sys: LtiSystem, tol: float = 1e-6) -> float:
    """Certified upper bound on the H-infinity norm, within relative
    ``tol`` of it, by the Bruinsma-Steinbuch iteration.

    One complex Schur form A = U T U^H serves the whole call: diag(T)
    gives the Hurwitz check and the resonant frequencies, and each
    sigma_max(G(jw)) is one triangular solve with jw I - T (Laub 1981).
    A lower bound ``lo`` is the largest sigma_max at zero, at the
    resonant frequencies of A, on a log grid, and ||D||. Each round tests
    the level gamma = (1 + tol/2) lo on the Hamiltonian. With no
    imaginary-axis eigenvalue, sigma_max stays below gamma at every
    frequency and gamma is returned, so ||G||_inf <= gamma <= (1 + tol/2)
    ||G||_inf. Otherwise sigma_max at the crossing frequencies and their
    midpoints raises ``lo`` (Bruinsma & Steinbuch 1990), which takes one
    to a few rounds.

    Near a very sharp peak the Hamiltonian's eigenvalues can stay within
    ``HINF_AXIS_RTOL`` of the axis at a level sigma_max does not reach.
    Each such round doubles the margin of gamma over ``lo``, so the
    result stays a certified upper bound but may exceed the norm by more
    than ``tol``. Requires A Hurwitz; raises ``SolverDiverged`` after
    ``HINF_MAX_ROUNDS`` rounds without a certificate.
    """
    T, U = sla.schur(sys.A, output="complex")
    eig = np.diag(T)
    if float(np.max(eig.real)) >= 0:
        raise NotHurwitz("A must be Hurwitz")
    d_norm = float(np.linalg.norm(sys.D, 2)) if sys.D.size else 0.0
    if float(np.linalg.norm(sys.B)) == 0.0 or float(np.linalg.norm(sys.C)) == 0.0:
        return d_norm
    factors = (T, sys.C @ U, U.conj().T @ sys.B, sys.D)
    probes = [0.0] + [w for w in eig.imag if w > 0]
    scale = max(1.0, float(np.max(np.abs(eig))))
    probes += list(scale * np.logspace(-2, 2, 25))
    lo = max([d_norm] + [_sigma_max_at(*factors, w) for w in probes])
    if lo <= 0.0:
        return 0.0
    excess = 0.5 * tol
    gamma = (1.0 + excess) * lo
    for _ in range(HINF_MAX_ROUNDS):
        crossings = _axis_crossings(sys, gamma)
        if crossings.size == 0:
            return gamma
        candidates = np.concatenate([crossings, 0.5 * (crossings[1:] + crossings[:-1])])
        lo = max([lo] + [_sigma_max_at(*factors, w) for w in candidates])
        if lo < gamma:
            # sigma_max stays below the level at the reported crossings:
            # eigenvalues within the axis test's tolerance, not on the axis
            excess *= 2.0
        gamma = (1.0 + excess) * lo
    raise SolverDiverged(f"H-infinity norm not certified in {HINF_MAX_ROUNDS} rounds")


def h2_norm(sys: LtiSystem) -> float:
    """H2 norm sqrt(trace(C X C')) with the controllability gramian
    A X + X A' + B B' = 0; requires A Hurwitz and D = 0."""
    if float(np.linalg.norm(sys.D)) != 0.0:
        raise NonzeroFeedthrough("H2 norm requires D = 0")
    if matkit.spectral_abscissa(sys.A) >= 0:
        raise NotHurwitz("A must be Hurwitz")
    X = matkit.solve_lyapunov(sys.A.T, sys.B @ sys.B.T)
    return float(np.sqrt(max(float(np.trace(sys.C @ X @ sys.C.T)), 0.0)))


def small_gain_check(model: HeteroModel, K, a_hat, a_tilde, b_tilde):
    """Small-gain stability test for the mismatch feedback loop.

    lhs is the H-infinity norm of the open-loop plant driven into the
    mismatch output (At - Bt K), rhs the inverse norm of the nominal
    closed-loop sensitivity K (sI - Ahat_cl)^-1. Stability is certified
    when lhs < rhs. Requires the open-loop plant and Ahat_cl Hurwitz;
    a non-Hurwitz open loop makes the test inapplicable, not unstable.
    """
    A, B = model.A, model.B
    if matkit.spectral_abscissa(A) >= 0:
        raise NotHurwitz("open-loop plant must be Hurwitz for the small-gain test")
    if matkit.spectral_abscissa(a_hat) >= 0:
        raise NotHurwitz("transformed closed loop must be Hurwitz")
    K = matkit.as_matrix(K, "K")
    lhs = hinf_norm(LtiSystem(A, B, a_tilde - b_tilde @ K))
    gd = hinf_norm(LtiSystem(a_hat, np.eye(a_hat.shape[0]), -K))
    rhs = np.inf if gd == 0.0 else 1.0 / gd
    return lhs, rhs, bool(lhs < rhs)


def performance_bound(model: HeteroModel, K, plan: DecompositionPlan,
                      spec: LqrSpec, x0) -> PerformanceBound:
    """H2 performance bound for deploying gain K on the heterogeneous plant.

    Builds the impulse-driven nominal loop eta' = Ahat_cl eta + e + x0 d(t)
    with cost output y = [sqrt(Q); -sqrt(R) K] eta, the mismatch loop
    G_sigma = (At - Bt K)(sI - A)^-1 B, and evaluates

        epsilon = ||G_sigma||_2,
        J2_bar = ||[sqrt(Q); -sqrt(R) K] (sI - Ahat_cl)^-1 x0||_2,
        bound = J2_bar + ||G_ey W||_inf
                         * (epsilon ||G_du||_inf + ||G_free||_2),

    where G_eu = -K (sI - Ahat_cl)^-1, G_ey = [sqrt(Q); -sqrt(R) K]
    (sI - Ahat_cl)^-1, G_du = G_eu x0, W = (I - G_sigma G_eu)^-1 and
    G_free = (At - Bt K)(sI - A)^-1 x0 is the plant's own
    initial-condition response through the mismatch output; alpha is
    reported so that bound = J2_bar + alpha * epsilon. The exact
    closed-loop J2 on the true plant is computed for comparison.

    G_ey W is realized at its minimal order 2nN on the state (eta,
    sigma) of the nominal loop and the mismatch plant, driven by v:

        eta'   = Ahat_cl eta + (At - Bt K) sigma + v,
        sigma' = -B K eta + A sigma,
        y      = [sqrt(Q); -sqrt(R) K] eta.

    G_eu and G_ey see the same input through the same (Ahat_cl, I), so
    one eta serves both.

    Two departures from the naive all-H2 product are needed for the
    bound to actually hold: the middle factors use induced (H-infinity)
    norms, via ||G_ey W G_sigma G_du||_2 <= ||G_ey W||_inf
    ||G_sigma||_2 ||G_du||_inf, and the G_free term accounts for the
    plant subsystem starting at x0 rather than at rest (both vanish for
    a homogeneous plant). Raises ``NotHurwitz`` if any required
    realization is unstable.
    """
    K = matkit.as_matrix(K, "K")
    x0 = np.asarray(x0, dtype=float).ravel()
    Ahat, Bhat, Atilde, Btilde = transformed_pair(model, plan)
    a_hat = Ahat - Bhat @ K
    if matkit.spectral_abscissa(a_hat) >= 0:
        raise NotHurwitz("transformed closed loop is not Hurwitz")
    if matkit.spectral_abscissa(model.A) >= 0:
        raise NotHurwitz("open-loop plant must be Hurwitz for the mismatch H2 norms")
    Q, R = spec.Q, spec.R
    Cy = np.vstack([matkit.sqrtm_psd(Q), -matkit.sqrtm_psd(R) @ K])
    x0col = x0.reshape(-1, 1)
    nx = a_hat.shape[0]

    mismatch_out = Atilde - Btilde @ K
    epsilon = h2_norm(LtiSystem(model.A, model.B, mismatch_out))
    j2_bar = h2_norm(LtiSystem(a_hat, x0col, Cy))
    g_du = LtiSystem(a_hat, x0col, -K)
    free_h2 = h2_norm(LtiSystem(model.A, x0col, mismatch_out))
    g_ey_w = LtiSystem(
        np.block([[a_hat, mismatch_out], [-model.B @ K, model.A]]),
        np.vstack([np.eye(nx), np.zeros((nx, nx))]),
        np.hstack([Cy, np.zeros((Cy.shape[0], nx))]),
    )
    correction = hinf_norm(g_ey_w) * (epsilon * hinf_norm(g_du) + free_h2)
    alpha = correction / epsilon if epsilon > 0 else 0.0
    bound = j2_bar + correction

    qeff = matkit.symmetrize(Q + K.T @ R @ K)
    actual = float(np.sqrt(max(evaluate_cost(model.A - model.B @ K, qeff, x0), 0.0)))
    holds = actual <= bound * (1.0 + 1e-9) + 1e-12
    return PerformanceBound(epsilon, alpha, j2_bar, bound, actual, holds)


def robust_report(model: HeteroModel, plan: DecompositionPlan, spec: LqrSpec,
                  x0, gain=None) -> RobustReport:
    """Full certification report.

    The certificates are evaluated at the transformed-Riccati gain (their
    algebra requires it); a deployed ``gain``, when supplied, is compared
    against it and used for the deployed-loop diagnostics. Checks whose
    preconditions fail are reported as None verdicts rather than errors.
    """
    Atilde, Btilde, a_hat, p_hat, k_are = hetero_lift(model, plan, spec)
    _, Bhat, _, _ = transformed_pair(model, plan)
    deployed = k_are if gain is None else matkit.as_matrix(gain, "gain")
    gain_gap = float(np.linalg.norm(deployed - k_are))

    lmi_max, lmi_pass = lmi_stability_check(Atilde, Btilde, p_hat, spec.Q, spec.R, Bhat)
    verdicts: dict = {"lmi": bool(lmi_pass)}
    lhs = rhs = None
    try:
        lhs, rhs, sg_pass = small_gain_check(model, k_are, a_hat, Atilde, Btilde)
        verdicts["small_gain"] = bool(sg_pass)
    except NotHurwitz:
        verdicts["small_gain"] = None
    perf = None
    try:
        perf = performance_bound(model, k_are, plan, spec, x0)
        verdicts["bound_holds"] = bool(perf.holds)
    except NotHurwitz:
        verdicts["bound_holds"] = None
    verdicts["deployed_stable"] = bool(
        matkit.spectral_abscissa(model.A - model.B @ deployed) < 0
    )
    return RobustReport(
        lmi_max_eig=lmi_max,
        small_gain_lhs=lhs,
        small_gain_rhs=rhs,
        epsilon=None if perf is None else perf.epsilon,
        alpha=None if perf is None else perf.alpha,
        j2_bar=None if perf is None else perf.j2_bar,
        bound=None if perf is None else perf.bound,
        actual_j2=None if perf is None else perf.actual_j2,
        gain_gap=gain_gap,
        verdicts=verdicts,
    )


def save_report(report: RobustReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_json(), indent=2))
