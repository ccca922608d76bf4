"""Certification of the hierarchically designed gain on a non-homogeneous
plant: a Lyapunov/LMI stability test, a small-gain test on the
heterogeneity mismatch loop, and an H2 performance bound, plus the
H-infinity / H2 norm machinery they need. The three certificates read one
``HeteroLift``, the transformed design that ``hetero_lift`` forms once.

Importing this module loads numpy alone. ``scipy.linalg`` loads on the
first ``hinf_norm`` (Schur form, triangular solves) or Lyapunov
solve (``matkit.solve_lyapunov``, behind ``h2_norm`` and
``evaluate_cost``)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import decomp, matkit
from .decomp import DecompositionPlan, LqrSpec
from .errors import DimensionMismatch, NotHurwitz, PreconditionFailed, SolverDiverged
from .lqr import evaluate_cost

HINF_AXIS_RTOL = 1e-8
HINF_MAX_ROUNDS = 30
HINF_RESONANT_PROBES = 5
HINF_GRID_POINTS = 9
HINF_REFINE_PROBES = 12
HINF_REFINE_LOG_WIDTH = 1e-4
_GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))


@dataclass(eq=False)
class HeteroModel:
    """Per-agent state-space pairs (A_i, B_i) with the assembled
    block-diagonal global matrices ``A`` and ``B``, built on first read:
    the model-free solve reads only the agent blocks, so only the dense
    consumers (the oracle, the dense cost, the certificates) pay for them."""

    A_blocks: list[np.ndarray]
    B_blocks: list[np.ndarray]

    def __post_init__(self):
        if not self.A_blocks or len(self.A_blocks) != len(self.B_blocks):
            raise DimensionMismatch("need matching, nonempty A/B block lists")
        self.A_blocks = [matkit.require_square(A, "A_i") for A in self.A_blocks]
        self.B_blocks = [matkit.as_matrix(B, "B_i") for B in self.B_blocks]
        shape_a, shape_b = self.A_blocks[0].shape, self.B_blocks[0].shape
        for A, B in zip(self.A_blocks, self.B_blocks):
            if A.shape != shape_a or B.shape != shape_b or B.shape[0] != shape_a[0]:
                raise DimensionMismatch("all agents must share state/input dimensions")

    @cached_property
    def A(self) -> np.ndarray:
        return matkit.block_diag(*self.A_blocks)

    @cached_property
    def B(self) -> np.ndarray:
        return matkit.block_diag(*self.B_blocks)

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
    """Strictly proper state-space realization (A, B, C):
    G(s) = C (sI - A)^-1 B."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        self.A = matkit.require_square(self.A, "A")
        self.B = matkit.as_matrix(self.B, "B")
        self.C = matkit.as_matrix(self.C, "C")
        n = self.A.shape[0]
        if self.B.shape[0] != n or self.C.shape[1] != n:
            raise DimensionMismatch("B/C do not conform to A")


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


class HeteroLift(NamedTuple):
    """The transformed design of a heterogeneous plant that every
    certificate reads: the transformed pair a_hat = T_n' A T_n and
    b_hat = T_n' B T_m, the heterogeneity mismatches a_tilde = A - a_hat
    and b_tilde = B - b_hat (both vanish for identical agents), the
    Riccati solution (p_hat, k) of the transformed pair and its closed
    loop a_cl = a_hat - b_hat k, which ``solve_are`` found Hurwitz."""

    a_hat: np.ndarray
    b_hat: np.ndarray
    a_tilde: np.ndarray
    b_tilde: np.ndarray
    a_cl: np.ndarray
    p_hat: np.ndarray
    k: np.ndarray


def hetero_lift(model: HeteroModel, plan: DecompositionPlan, spec: LqrSpec) -> HeteroLift:
    """Solve the transformed design problem for a heterogeneous plant with
    the spec's weights. Requires Q positive definite and the pair
    controllable (``solve_are`` tests the transformed pair, orthogonally
    similar to the plant's, and returns only a gain whose closed loop
    a_hat - b_hat k is Hurwitz).
    """
    if float(np.min(np.linalg.eigvalsh(matkit.symmetrize(spec.G1)))) <= 0:
        raise PreconditionFailed("Q must be positive definite (G1 must be PD)")
    a_hat = decomp.lift(plan.T.T, model.n, decomp.lift(plan.T.T, model.n, model.A.T).T)
    b_hat = decomp.lift(plan.T.T, model.n, decomp.lift(plan.T.T, model.m, model.B.T).T)
    p_hat, k = matkit.solve_are(a_hat, b_hat, spec.Q, spec.R)
    a_cl = a_hat - b_hat @ k
    return HeteroLift(a_hat, b_hat, model.A - a_hat, model.B - b_hat, a_cl, p_hat, k)


def lmi_stability_check(lift: HeteroLift, Q, R):
    """Sufficient LMI stability test for the heterogeneous closed loop:

        P At + At' P - P Bt R^-1 Bh' P - P Bh R^-1 Bt' P - Q
            - P Bh R^-1 Bh' P  <  0

    with P the lift's Riccati solution, At/Bt its heterogeneity
    mismatches and Bh its transformed input matrix. The left side is
    exactly the derivative matrix of the Lyapunov candidate x' P x along
    the true closed loop (the Riccati identity supplies the last two
    terms), so a pass certifies stability with no false positives;
    failures are inconclusive. Returns (max eigenvalue of the symmetrized
    left side, pass flag).
    """
    P, a_tilde, b_tilde, b_hat = lift.p_hat, lift.a_tilde, lift.b_tilde, lift.b_hat

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


def _sigma_max_at(solve_triangular, T, CU, UhB, omega: float) -> float:
    """sigma_max(G(jw)) from the Schur factors A = U T U^H:
    G(jw) = (C U) (jw I - T)^-1 (U^H B), one ``solve_triangular``
    (scipy's, bound once by the caller), and
    sigma_max^2 the largest eigenvalue of the smaller Gram matrix of G:
    cheaper than an SVD, with a relative error of the order of rounding."""
    shifted = -T
    shifted[np.diag_indices_from(shifted)] += 1j * omega
    G = CU @ solve_triangular(shifted, UhB)
    gram = G.conj().T @ G if G.shape[0] >= G.shape[1] else G @ G.conj().T
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def _refine_peak(sigma, probes: np.ndarray) -> float:
    """The largest sigma_max found by probing the frequencies ``probes``
    and then running a golden-section search for a peak in log w between
    the sorted neighbours of the best probe, which bracket it. The search
    stops once the bracket is ``HINF_REFINE_LOG_WIDTH`` wide in log w, or
    after ``HINF_REFINE_PROBES`` probes. ``probes`` holds w = 0 and two
    or more positive frequencies. A neighbour at w = 0, or none, is
    replaced by the mirror image in log w of the other one; a best probe
    at w = 0 is not refined."""
    omega = np.unique(probes)
    values = np.array([sigma(w) for w in omega])
    k = int(np.argmax(values))
    best = float(values[k])
    if omega[k] <= 0.0:
        return best
    mid = float(np.log(omega[k]))
    left = float(np.log(omega[k - 1])) if omega[k - 1] > 0.0 else None
    right = float(np.log(omega[k + 1])) if k + 1 < omega.size else None
    left = 2.0 * mid - right if left is None else left
    right = 2.0 * mid - left if right is None else right
    for _ in range(HINF_REFINE_PROBES):
        if right - left <= HINF_REFINE_LOG_WIDTH:
            break
        # probe the wider side of the bracket, a golden fraction into it
        if right - mid >= mid - left:
            trial = mid + _GOLDEN * (right - mid)
        else:
            trial = mid - _GOLDEN * (mid - left)
        value = sigma(float(np.exp(trial)))
        if value > best:
            left, right = (mid, right) if trial > mid else (left, mid)
            mid, best = trial, value
        elif trial > mid:
            right = trial
        else:
            left = trial
    return best


def _axis_crossings(sys: LtiSystem, gamma: float) -> np.ndarray:
    """Frequencies w >= 0 at which sigma_max(G(jw)) crosses the level
    gamma > 0: the imaginary parts of the imaginary-axis eigenvalues of
    the Hamiltonian [[A, B B' / gamma^2], [-C'C, -A']], sorted (empty when
    there is none)."""
    A, B, C = sys.A, sys.B, sys.C
    H = np.block([[A, B @ (B.T * (1.0 / (gamma * gamma)))], [-C.T @ C, -A.T]])
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

    One complex Schur form A = U T U^H, converted from the real one,
    serves the whole call: diag(T) gives the Hurwitz check and the
    resonant frequencies, and each sigma_max(G(jw)) is one triangular
    solve with jw I - T (Laub 1981). A lower bound ``lo`` is the largest
    sigma_max at zero, at the ``HINF_RESONANT_PROBES`` most lightly damped
    resonances of A (smallest -Re(lambda)/|lambda| among the eigenvalues
    with Im(lambda) > 0) and on a ``HINF_GRID_POINTS``-point log grid over
    four decades, raised by a short golden-section search for the peak
    between the neighbours of the best probe (``_refine_peak``), so that
    the first round usually certifies. Any sigma_max is a valid lower
    bound, so the probes only decide how close ``lo`` starts; the
    certificate comes from the Hamiltonian test alone. Each round tests
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
    ``HINF_MAX_ROUNDS`` rounds without a certificate. The Schur forms
    and the triangular solves come from ``scipy.linalg``, imported on the
    first call; the search is numpy code and loads no ``scipy.optimize``.
    """
    from scipy.linalg import rsf2csf, schur, solve_triangular

    T, U = rsf2csf(*schur(sys.A))
    eig = np.diag(T)
    if float(np.max(eig.real)) >= 0:
        raise NotHurwitz("A must be Hurwitz")
    if float(np.linalg.norm(sys.B)) == 0.0 or float(np.linalg.norm(sys.C)) == 0.0:
        return 0.0
    probe_args = (solve_triangular, T, sys.C @ U, U.conj().T @ sys.B)
    resonant = eig[eig.imag > 0]
    damping = -resonant.real / np.abs(resonant)
    lightest = resonant[np.argsort(damping, kind="stable")[:HINF_RESONANT_PROBES]]
    scale = max(1.0, float(np.max(np.abs(eig))))
    probes = np.array([0.0, *lightest.imag, *(scale * np.logspace(-2, 2, HINF_GRID_POINTS))])
    lo = _refine_peak(lambda w: _sigma_max_at(*probe_args, w), probes)
    if lo <= 0.0:
        return 0.0
    excess = 0.5 * tol
    gamma = (1.0 + excess) * lo
    for _ in range(HINF_MAX_ROUNDS):
        crossings = _axis_crossings(sys, gamma)
        if crossings.size == 0:
            return gamma
        candidates = np.concatenate([crossings, 0.5 * (crossings[1:] + crossings[:-1])])
        lo = max([lo] + [_sigma_max_at(*probe_args, w) for w in candidates])
        if lo < gamma:
            # sigma_max stays below the level at the reported crossings:
            # eigenvalues within the axis test's tolerance, not on the axis
            excess *= 2.0
        gamma = (1.0 + excess) * lo
    raise SolverDiverged(f"H-infinity norm not certified in {HINF_MAX_ROUNDS} rounds")


def h2_norm(sys: LtiSystem) -> float:
    """H2 norm sqrt(trace(C X C')) with the controllability gramian
    A X + X A' + B B' = 0; requires A Hurwitz (``matkit.solve_lyapunov``
    raises ``NotHurwitz`` otherwise)."""
    X = matkit.solve_lyapunov(sys.A.T, sys.B @ sys.B.T)
    return float(np.sqrt(max(float(np.trace(sys.C @ X @ sys.C.T)), 0.0)))


def small_gain_check(model: HeteroModel, lift: HeteroLift):
    """Small-gain stability test for the mismatch feedback loop.

    lhs is the H-infinity norm of the open-loop plant driven into the
    mismatch output (At - Bt K), rhs the inverse norm of the nominal
    closed-loop sensitivity K (sI - Ahat_cl)^-1, both at the lift's gain
    K. Stability is certified when lhs < rhs. Requires the open-loop
    plant Hurwitz (the first ``hinf_norm`` raises ``NotHurwitz``); a
    non-Hurwitz open loop makes the test inapplicable, not unstable.
    """
    A, B, K = model.A, model.B, lift.k
    lhs = hinf_norm(LtiSystem(A, B, lift.a_tilde - lift.b_tilde @ K))
    gd = hinf_norm(LtiSystem(lift.a_cl, np.eye(lift.a_cl.shape[0]), -K))
    rhs = np.inf if gd == 0.0 else 1.0 / gd
    return lhs, rhs, bool(lhs < rhs)


def performance_bound(model: HeteroModel, lift: HeteroLift, spec: LqrSpec,
                      x0) -> PerformanceBound:
    """H2 performance bound for deploying the lift's gain K on the
    heterogeneous plant.

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
    a homogeneous plant). The first ``h2_norm``, on the open-loop plant,
    raises ``NotHurwitz`` if that plant is not Hurwitz.
    """
    K, a_hat = lift.k, lift.a_cl
    x0 = np.asarray(x0, dtype=float).ravel()
    Q, R = spec.Q, spec.R
    Cy = np.vstack([matkit.sqrtm_psd(Q), -matkit.sqrtm_psd(R) @ K])
    x0col = x0.reshape(-1, 1)
    nx = a_hat.shape[0]

    mismatch_out = lift.a_tilde - lift.b_tilde @ K
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
    preconditions fail are reported as None verdicts rather than errors;
    a gain or x0 that does not fit the design raises ``DimensionMismatch``.
    """
    lift = hetero_lift(model, plan, spec)
    deployed = lift.k if gain is None else matkit.as_matrix(gain, "gain")
    if deployed.shape != lift.k.shape:
        raise DimensionMismatch(f"gain is {deployed.shape}, expected {lift.k.shape}")
    if np.size(x0) != lift.a_hat.shape[0]:
        raise DimensionMismatch(f"x0 has size {np.size(x0)}, expected {lift.a_hat.shape[0]}")
    gain_gap = float(np.linalg.norm(deployed - lift.k))

    lmi_max, lmi_pass = lmi_stability_check(lift, spec.Q, spec.R)
    verdicts: dict = {"lmi": bool(lmi_pass)}
    lhs = rhs = None
    try:
        lhs, rhs, sg_pass = small_gain_check(model, lift)
        verdicts["small_gain"] = bool(sg_pass)
    except NotHurwitz:
        verdicts["small_gain"] = None
    perf = None
    try:
        perf = performance_bound(model, lift, spec, x0)
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
