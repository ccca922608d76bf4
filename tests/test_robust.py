import numpy as np
import pytest
import scipy.linalg as sla

from hlqr import matkit, robust
from hlqr.bench import gen_graph
from hlqr.decomp import LqrSpec, construct_T
from hlqr.errors import NotHurwitz, PreconditionFailed, SolverDiverged
from hlqr.robust import (
    HeteroModel,
    LtiSystem,
    h2_norm,
    hetero_lift,
    hinf_norm,
    lmi_stability_check,
    performance_bound,
    robust_report,
    small_gain_check,
)
from conftest import random_laplacian, random_stable, run_fresh_python


def scalar_pair_spec():
    G1 = np.array([[2.0, -1.0], [-1.0, 2.0]])
    return LqrSpec(2, 1, 1, G1, np.eye(2), np.eye(1), np.eye(1))


def scalar_pair_model(a2=-0.8):
    return HeteroModel([np.array([[-1.0]]), np.array([[a2]])], [np.eye(1)] * 2)


def draw_setup(rng, mag, stable_base=True):
    N = int(rng.integers(2, 5))
    n = int(rng.integers(1, 3))
    m = 1
    L = random_laplacian(rng, N)
    G1 = 0.5 * np.eye(N) + L
    spec = LqrSpec(N, n, m, G1, np.eye(N), np.eye(n), np.eye(m))
    plan = construct_T(G1, np.eye(N))
    A0 = random_stable(rng, n) if stable_base else rng.standard_normal((n, n))
    B0 = rng.standard_normal((n, m))
    As = [A0 + mag * rng.standard_normal((n, n)) for _ in range(N)]
    Bs = [B0 + mag * rng.standard_normal((n, m)) for _ in range(N)]
    return spec, plan, HeteroModel(As, Bs)


class TestHeteroLift:
    def test_homogeneous_mismatch_vanishes(self, rng):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = HeteroModel([np.array([[-1.0]])] * 2, [np.eye(1)] * 2)
        lift = hetero_lift(model, plan, spec)
        scale = np.linalg.norm(model.A)
        assert np.linalg.norm(lift.a_tilde) <= 1e-12 * scale
        assert np.linalg.norm(lift.b_tilde) <= 1e-12 * max(np.linalg.norm(model.B), 1.0)

    def test_two_agent_mismatch_off_diagonal(self):
        # hand computation: T' diag(-1, -0.8) T has off-diagonal -0.1, so
        # the mismatch matrix is [[-0.1, 0.1], [0.1, 0.1]]
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        lift = hetero_lift(scalar_pair_model(), plan, spec)
        assert np.allclose(np.abs(lift.a_tilde), 0.1, atol=1e-12)
        np.testing.assert_allclose(lift.b_tilde, 0.0, atol=1e-14)
        assert matkit.spectral_abscissa(lift.a_cl) < 0

    def test_rejects_uncontrollable_plant(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = HeteroModel([np.array([[-1.0]])] * 2, [np.zeros((1, 1))] * 2)
        with pytest.raises(PreconditionFailed, match="not controllable"):
            hetero_lift(model, plan, spec)

    def test_rejects_singular_g1(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        spec = LqrSpec(2, 1, 1, L, np.eye(2), np.eye(1), np.eye(1))
        plan = construct_T(L + 0.5 * np.eye(2), np.eye(2))
        with pytest.raises(PreconditionFailed):
            hetero_lift(scalar_pair_model(), plan, spec)

    def test_learned_gain_approaches_lift_gain_for_small_mismatch(self):
        # as heterogeneity shrinks, the hierarchical target and the
        # transformed Riccati gain coincide (they are equal at zero)
        from hlqr.rl import HierarchicalConfig, hierarchical_solve

        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        gaps = []
        for eps in (0.0, 0.02):
            model = scalar_pair_model(a2=-1.0 + eps)
            K_are = hetero_lift(model, plan, spec).k
            config = HierarchicalConfig(initial_gains=[np.array([[1.5]])] * plan.r)
            K_learn, _ = hierarchical_solve(spec, plan, model, config)
            gaps.append(np.linalg.norm(K_learn - K_are))
        assert gaps[0] <= 1e-3
        assert gaps[1] <= 0.05


class TestHeteroModel:
    def test_global_matrices_built_once(self):
        blocks = [np.array([[-1.0, 0.5], [0.0, -2.0]]), np.array([[-0.5, 0.0], [1.0, -1.0]])]
        model = HeteroModel(blocks, [np.array([[0.0], [1.0]])] * 2)
        assert model.A is model.A and model.B is model.B
        np.testing.assert_array_equal(model.A, sla.block_diag(*blocks))
        assert model.B.shape == (4, 2)


class TestLmiCheck:
    def test_homogeneous_passes(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = HeteroModel([np.array([[-1.0]])] * 2, [np.eye(1)] * 2)
        max_eig, ok = lmi_stability_check(hetero_lift(model, plan, spec), spec.Q, spec.R)
        assert ok and max_eig < 0

    def test_small_mismatch_passes_and_is_truly_stable(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = scalar_pair_model()
        lift = hetero_lift(model, plan, spec)
        _, ok = lmi_stability_check(lift, spec.Q, spec.R)
        assert ok
        assert matkit.spectral_abscissa(model.A - model.B @ lift.k) < 0

    def test_check_fails_at_or_before_true_instability(self):
        # scale heterogeneity until the closed loop actually destabilizes;
        # the sufficient check must flip no later than that point
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        saw_unstable = False
        for scale in np.linspace(0.0, 12.0, 25):
            model = HeteroModel(
                [np.array([[-1.0 + scale]]), np.array([[-1.0 - scale]])],
                [np.eye(1), np.eye(1)],
            )
            try:
                lift = hetero_lift(model, plan, spec)
            except (PreconditionFailed, NotHurwitz):
                continue
            _, ok = lmi_stability_check(lift, spec.Q, spec.R)
            stable = matkit.spectral_abscissa(model.A - model.B @ lift.k) < 0
            if not stable:
                saw_unstable = True
            if ok:
                assert stable
        assert saw_unstable


def lightly_damped():
    """1/(s^2 + 0.1 s + 1) and the maximum of a dense sweep of its gain."""
    A = np.array([[0.0, 1.0], [-1.0, -0.1]])
    sys = LtiSystem(A, np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]))
    # oracle: dense frequency sweep of |C (jw I - A)^-1 B|
    omegas = np.logspace(-3, 3, 1_000_000)
    denom = (1.0 - omegas**2) + 1j * 0.1 * omegas
    return sys, np.max(np.abs(1.0 / denom))


def middle_factor_case(seed):
    """N=3, n=2 heterogeneous loop of the H2 bound: its model, spec, plan,
    x0, lift, mismatch output At - Bt K and cost output Cy."""
    rng = np.random.default_rng(seed)
    N, n = 3, 2
    G1 = 0.5 * np.eye(N) + random_laplacian(rng, N)
    spec = LqrSpec(N, n, 1, G1, np.eye(N), np.eye(n), np.eye(1))
    plan = construct_T(G1, np.eye(N))
    A0, B0 = random_stable(rng, n), rng.standard_normal((n, 1))
    model = HeteroModel([A0 + 0.1 * rng.standard_normal((n, n)) for _ in range(N)],
                        [B0 + 0.1 * rng.standard_normal((n, 1)) for _ in range(N)])
    x0 = rng.standard_normal(n * N)
    lift = hetero_lift(model, plan, spec)
    K = lift.k
    Cy = np.vstack([matkit.sqrtm_psd(spec.Q), -matkit.sqrtm_psd(spec.R) @ K])
    return model, spec, plan, x0, lift, lift.a_tilde - lift.b_tilde @ K, Cy


def g_ey_w_sigma(case, omega):
    """sigma_max(G_ey (I - G_sigma G_eu)^-1) at each frequency, built from
    the transfer functions rather than a realization."""
    model, _, _, _, lift, mismatch_out, Cy = case
    a_hat, K = lift.a_cl, lift.k
    nx = a_hat.shape[0]
    jw = 1j * omega[:, None, None] * np.eye(nx)
    res_hat = np.linalg.inv(jw - a_hat)
    g_eu = -K @ res_hat
    g_ey = Cy @ res_hat
    g_sigma = mismatch_out @ np.linalg.solve(jw - model.A, model.B)
    W = np.linalg.inv(np.eye(nx) - g_sigma @ g_eu)
    return np.linalg.svd(g_ey @ W, compute_uv=False)[:, 0]


def msd_network(N, seed, spread=0.05):
    """N planar mass-spring-damper agents (n = 4, m = 2) with stiffness,
    damping and mass each drawn from 1 +- spread, G1 = 0.5 I + L, G2 = I,
    Q0 = I, R0 = I: the certification inputs of the benchmark. Returns
    spec, plan, model and x0."""
    rng = np.random.default_rng(seed)
    spec = LqrSpec(N, 4, 2, 0.5 * np.eye(N) + gen_graph(N, seed), np.eye(N),
                   np.eye(4), np.eye(2))
    z, eye = np.zeros((2, 2)), np.eye(2)
    As, Bs = [], []
    for k, c, mass in zip(*(1.0 + rng.uniform(-spread, spread, N) for _ in range(3))):
        As.append(np.block([[z, eye], [-(k / mass) * eye, -(c / mass) * eye]]))
        Bs.append(np.vstack([z, eye / mass]))
    x0 = np.kron(np.ones(N), rng.uniform(0.0, 1.0, 4))
    return spec, construct_T(spec.G1, spec.G2), HeteroModel(As, Bs), x0


def second_order_modes(modes):
    """Block-diagonal system of g w^2 / (s^2 + 2 zeta w s + w^2), one input
    and one output per (w, zeta, g) mode, and sigma_max(G(jw)) as the
    largest modal gain at each frequency of an array."""
    A = sla.block_diag(*[np.array([[0.0, 1.0], [-w * w, -2 * z * w]]) for w, z, _ in modes])
    B = sla.block_diag(*[np.array([[0.0], [1.0]])] * len(modes))
    C = sla.block_diag(*[np.array([[g * w * w, 0.0]]) for w, _, g in modes])

    def sigma(omega):
        return np.max([np.abs(g * w * w / (w * w - omega**2 + 2j * z * w * omega))
                       for w, z, g in modes], axis=0)

    return LtiSystem(A, B, C), sigma


class TestHinfNorm:
    def test_first_order_lag(self):
        sys = LtiSystem(np.array([[-1.0]]), np.eye(1), np.eye(1))
        assert hinf_norm(sys) == pytest.approx(1.0, abs=1e-6)

    def test_dc_gain(self):
        sys = LtiSystem(np.array([[-4.0]]), np.eye(1), 2.0 * np.eye(1))
        assert hinf_norm(sys) == pytest.approx(0.5, abs=1e-6)

    def test_lightly_damped_peak_matches_sweep(self):
        sys, sweep = lightly_damped()
        val = hinf_norm(sys, tol=1e-8)
        assert val == pytest.approx(sweep, rel=1e-6)

    def test_lightly_damped_upper_bound(self):
        # the result is the certified upper end: never below any sampled
        # gain, and above the peak by less than tol
        sys, sweep = lightly_damped()
        tol = 1e-8
        assert sweep <= hinf_norm(sys, tol=tol) <= sweep * (1 + tol)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_middle_factor_realization_upper_bound(self, seed):
        # the 2nN-state G_ey W realization of performance_bound against a
        # transfer-function sweep refined around its maximum
        case = middle_factor_case(seed)
        model, _, _, _, lift, mismatch_out, Cy = case
        a_hat, K = lift.a_cl, lift.k
        nx = a_hat.shape[0]
        g_ey_w = LtiSystem(
            np.block([[a_hat, mismatch_out], [-model.B @ K, model.A]]),
            np.vstack([np.eye(nx), np.zeros((nx, nx))]),
            np.hstack([Cy, np.zeros((Cy.shape[0], nx))]),
        )
        omega = np.concatenate([[0.0], np.logspace(-3, 3, 20001)])
        coarse = g_ey_w_sigma(case, omega)
        k = int(np.argmax(coarse))
        fine = np.linspace(omega[max(k - 1, 0)], omega[min(k + 1, omega.size - 1)], 2001)
        sweep = max(coarse[k], g_ey_w_sigma(case, fine).max())
        tol = 1e-6
        assert sweep <= hinf_norm(g_ey_w, tol=tol) <= sweep * (1 + tol)

    @pytest.mark.parametrize("zeta", [1e-6, 1e-7])
    def test_sharp_peak_stays_upper_bound(self, zeta):
        # w0^2 / (s^2 + 2 zeta w0 s + w0^2) at w0 = 100: at levels just
        # above the peak the Hamiltonian's eigenvalues stay within the axis
        # tolerance, which must widen the margin, not end the iteration
        w0 = 100.0
        A = np.array([[0.0, 1.0], [-w0**2, -2 * zeta * w0]])
        sys = LtiSystem(A, np.array([[0.0], [1.0]]), np.array([[w0**2, 0.0]]))
        peak = 1.0 / (2 * zeta * np.sqrt(1 - zeta**2))
        assert peak <= hinf_norm(sys) <= 1.01 * peak

    def test_trimmed_probes_match_all_probes_on_certify_systems(self, monkeypatch):
        # the four H-infinity systems of one N=20 certification: seeding lo
        # from a few resonances certifies the same norm, within tol and in
        # no more Hamiltonian rounds, as seeding it from every resonance
        spec, plan, model, x0 = msd_network(20, 11)
        hinf, crossings = robust.hinf_norm, robust._axis_crossings
        systems, rounds = [], []

        def captured(sys, tol=1e-6):
            systems.append((sys, tol))
            return hinf(sys, tol)

        def counted(sys, gamma):
            rounds.append(gamma)
            return crossings(sys, gamma)

        monkeypatch.setattr(robust, "hinf_norm", captured)
        robust_report(model, plan, spec, x0)
        assert len(systems) == 4
        monkeypatch.setattr(robust, "_axis_crossings", counted)

        def certify(sys, tol, probes):
            monkeypatch.setattr(robust, "HINF_RESONANT_PROBES", probes)
            rounds.clear()
            return hinf(sys, tol), len(rounds)

        for sys, tol in systems:
            trimmed, trimmed_rounds = certify(sys, tol, robust.HINF_RESONANT_PROBES)
            full, full_rounds = certify(sys, tol, sys.A.shape[0])
            assert abs(trimmed - full) <= tol * full
            assert trimmed_rounds <= full_rounds

    def test_certify_systems_take_few_rounds(self, monkeypatch):
        # the four H-infinity systems of one N=20 certification start the
        # Hamiltonian test from a refined peak: at most one extra round in
        # all, and the refinement never ends below the best probe
        spec, plan, model, x0 = msd_network(20, 11)
        crossings, refine = robust._axis_crossings, robust._refine_peak
        rounds, refined = [], []

        def counted(sys, gamma):
            rounds.append(gamma)
            return crossings(sys, gamma)

        def checked(sigma, probes):
            best = max(sigma(w) for w in probes)
            refined.append((refine(sigma, probes), best))
            return refined[-1][0]

        monkeypatch.setattr(robust, "_axis_crossings", counted)
        monkeypatch.setattr(robust, "_refine_peak", checked)
        robust_report(model, plan, spec, x0)
        assert len(refined) == 4
        assert len(rounds) <= 5
        assert all(value >= best for value, best in refined)

    @pytest.mark.parametrize("center", [0.92, 40.0, 5e-3, 150.0])
    def test_refine_peak_finds_bracketed_peak(self, center):
        # a smooth peak between probes, beside a duplicated probe, below the
        # first positive probe or above the last: the golden-section search
        # stops at a coarse bracket, but never below the best probe
        def sigma(w):
            return 1.0 / (1.0 + 25.0 * np.log(w / center) ** 2) if w > 0 else 0.0

        probes = np.array([0.0, 0.8895, 0.8895, 0.8683, *np.logspace(-2, 2, 9)])
        best = max(sigma(w) for w in probes)
        value = robust._refine_peak(sigma, probes)
        assert best <= value
        assert value == pytest.approx(1.0, rel=1e-4)

    def test_hinf_norm_skips_scipy_optimize(self):
        # the peak refinement is numpy code: a fresh interpreter shows that
        # a hinf_norm call loads scipy.linalg but not scipy.optimize
        code = "\n".join([
            "import sys, numpy as np",
            "from hlqr.robust import LtiSystem, hinf_norm",
            "A = np.array([[0.0, 1.0], [-1.0, -0.1]])",
            "hinf_norm(LtiSystem(A, np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]])))",
            "print('scipy.linalg' in sys.modules, 'scipy.optimize' in sys.modules)",
        ])
        assert run_fresh_python(code).split() == ["True", "False"]

    def test_dominant_mode_outside_resonant_probes(self):
        # the five most lightly damped modes are not the peak: the mode at
        # w = 5 is 50x better damped but 1e3x stronger, so the first level
        # misses it and the crossing step must find it
        assert robust.HINF_RESONANT_PROBES <= 5
        light = [(w, 1e-3, 1.0) for w in (1.0, 3.0, 7.0, 13.0, 29.0)]
        sys, sigma = second_order_modes(light + [(5.0, 0.05, 1e3)])
        omega = np.concatenate([[0.0], np.logspace(-2, 3, 200_001)])
        k = int(np.argmax(sigma(omega)))
        fine = np.linspace(omega[k - 1], omega[k + 1], 20_001)
        sweep = max(sigma(omega).max(), sigma(fine).max())
        tol = 1e-6
        assert sweep <= hinf_norm(sys, tol=tol) <= sweep * (1 + tol)

    def test_crossing_frequencies(self):
        # |1/(jw + 1)| = 1/2 at w = sqrt(3); the peak 1 sits at w = 0
        sys = LtiSystem(np.array([[-1.0]]), np.eye(1), np.eye(1))
        np.testing.assert_allclose(robust._axis_crossings(sys, 0.5), [np.sqrt(3.0)], rtol=1e-10)
        assert robust._axis_crossings(sys, 1.01).size == 0

    def test_uncertified_iteration_raises(self, monkeypatch):
        # a crossing test that never clears must end in a typed failure
        monkeypatch.setattr(robust, "_axis_crossings", lambda sys, gamma: np.array([0.5, 2.0]))
        with pytest.raises(SolverDiverged):
            hinf_norm(LtiSystem(np.array([[-1.0]]), np.eye(1), np.eye(1)))

    def test_dominates_grid(self, rng):
        for _ in range(5):
            n = 3
            A = random_stable(rng, n)
            B = rng.standard_normal((n, 2))
            C = rng.standard_normal((2, n))
            sys = LtiSystem(A, B, C)
            val = hinf_norm(sys, tol=1e-7)
            omegas = np.logspace(-3, 3, 10_000)
            for w in omegas[:: max(1, len(omegas) // 500)]:
                G = C @ np.linalg.solve(1j * w * np.eye(n) - A, B)
                assert np.linalg.svd(G, compute_uv=False)[0] <= val * (1 + 1e-6)

    def test_rejects_unstable(self):
        with pytest.raises(NotHurwitz):
            hinf_norm(LtiSystem(np.array([[1.0]]), np.eye(1), np.eye(1)))

    def test_zero_system(self):
        sys = LtiSystem(np.array([[-1.0]]), np.eye(1), np.zeros((1, 1)))
        assert hinf_norm(sys) == 0.0


class TestH2Norm:
    @pytest.mark.parametrize("a", [0.5, 1.0, 4.0])
    def test_first_order_analytic(self, a):
        sys = LtiSystem(np.array([[-a]]), np.eye(1), np.eye(1))
        assert h2_norm(sys) == pytest.approx(np.sqrt(1.0 / (2.0 * a)), abs=1e-8)

    def test_matches_frequency_quadrature(self, rng):
        n = 3
        A = random_stable(rng, n)
        B = rng.standard_normal((n, 1))
        C = rng.standard_normal((2, n))
        sys = LtiSystem(A, B, C)
        val = h2_norm(sys)
        # oracle: trapezoidal quadrature of (1/pi) int_0^W tr(G* G) dw on a
        # dense grid wide enough for the 1/w^2 tail to be negligible
        omegas = np.concatenate([[0.0], np.logspace(-4, 6, 200_000)])
        vals = np.empty_like(omegas)
        eye = np.eye(n)
        for i, w in enumerate(omegas):
            G = C @ np.linalg.solve(1j * w * eye - A, B)
            vals[i] = np.real(np.trace(G.conj().T @ G))
        integral = np.trapezoid(vals, omegas) / np.pi
        assert val == pytest.approx(np.sqrt(integral), abs=1e-4)

    def test_rejects_unstable(self):
        with pytest.raises(NotHurwitz):
            h2_norm(LtiSystem(np.array([[0.5]]), np.eye(1), np.eye(1)))


class TestSmallGain:
    def test_homogeneous_lhs_vanishes(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = HeteroModel([np.array([[-1.0]])] * 2, [np.eye(1)] * 2)
        lhs, rhs, ok = small_gain_check(model, hetero_lift(model, plan, spec))
        assert lhs <= 1e-10
        assert ok

    def test_small_mismatch_passes_and_loop_is_stable(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = scalar_pair_model()
        lift = hetero_lift(model, plan, spec)
        lhs, rhs, ok = small_gain_check(model, lift)
        assert ok and lhs < rhs
        assert matkit.spectral_abscissa(model.A - model.B @ lift.k) < 0

    def test_open_loop_unstable_is_inapplicable(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        model = HeteroModel([A] * 2, [B] * 2)
        spec4 = LqrSpec(2, 2, 1, spec.G1, np.eye(2), np.eye(2), np.eye(1))
        lift = hetero_lift(model, plan, spec4)
        with pytest.raises(NotHurwitz):
            small_gain_check(model, lift)


class TestPerformanceBound:
    def test_homogeneous_collapse(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = HeteroModel([np.array([[-1.0]])] * 2, [np.eye(1)] * 2)
        pb = performance_bound(model, hetero_lift(model, plan, spec), spec,
                               np.array([1.0, -0.5]))
        assert pb.epsilon <= 1e-10
        assert pb.bound == pytest.approx(pb.j2_bar, rel=1e-9)
        assert pb.actual_j2 == pytest.approx(pb.j2_bar, rel=1e-6)

    def test_small_mismatch_bound_holds(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = scalar_pair_model()
        pb = performance_bound(model, hetero_lift(model, plan, spec), spec,
                               np.array([1.0, 1.0]))
        assert pb.holds
        assert pb.actual_j2 <= pb.bound

    def test_zero_initial_state(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = scalar_pair_model()
        pb = performance_bound(model, hetero_lift(model, plan, spec), spec, np.zeros(2))
        assert pb.j2_bar == pytest.approx(0.0, abs=1e-12)
        assert pb.actual_j2 == pytest.approx(0.0, abs=1e-12)
        assert pb.bound >= 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_middle_factor_matches_frequency_sweep(self, seed):
        # ||G_ey W||_inf recovered from the bound against a direct sweep of
        # sigma_max(G_ey (I - G_sigma G_eu)^-1) built from the transfer
        # functions; a sign or block error in the realization moves it
        case = middle_factor_case(seed)
        model, spec, _, x0, lift, mismatch_out, _ = case
        pb = performance_bound(model, lift, spec, x0)
        x0col = x0.reshape(-1, 1)
        du_inf = hinf_norm(LtiSystem(lift.a_cl, x0col, -lift.k))
        free_h2 = h2_norm(LtiSystem(model.A, x0col, mismatch_out))
        middle = (pb.bound - pb.j2_bar) / (pb.epsilon * du_inf + free_h2)

        omega = np.concatenate([[0.0], np.logspace(-3, 3, 20001)])
        sweep = g_ey_w_sigma(case, omega).max()
        assert middle == pytest.approx(sweep, rel=1e-5)


class TestSoundness:
    def test_no_false_positives_and_bound_valid(self, rng):
        lmi_passes = sg_passes = bounds_checked = 0
        for _ in range(60):
            mag = 10 ** rng.uniform(-2, 0.5)
            spec, plan, model = draw_setup(rng, mag)
            try:
                lift = hetero_lift(model, plan, spec)
            except (PreconditionFailed, NotHurwitz):
                continue
            stable = matkit.spectral_abscissa(model.A - model.B @ lift.k) < 0
            _, lmi_ok = lmi_stability_check(lift, spec.Q, spec.R)
            if lmi_ok:
                lmi_passes += 1
                assert stable
            if matkit.spectral_abscissa(model.A) < 0:
                try:
                    _, _, sg_ok = small_gain_check(model, lift)
                except NotHurwitz:
                    sg_ok = False
                if sg_ok:
                    sg_passes += 1
                    assert stable
                if stable:
                    try:
                        pb = performance_bound(model, lift, spec,
                                               rng.standard_normal(model.n * model.N))
                    except NotHurwitz:
                        continue
                    bounds_checked += 1
                    assert pb.actual_j2 <= pb.bound * (1 + 1e-6)
        assert lmi_passes > 10 and sg_passes > 10 and bounds_checked > 10


class TestRobustReport:
    def test_report_json(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = scalar_pair_model()
        rep = robust_report(model, plan, spec, np.array([1.0, 0.0]))
        obj = rep.to_json()
        assert obj["verdicts"]["lmi"] is True
        assert obj["verdicts"]["deployed_stable"] is True
        assert obj["gainGap"] == 0.0
        assert obj["bound"] >= obj["actualJ2"] > 0

    def test_report_with_deployed_gain(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = scalar_pair_model()
        K_are = hetero_lift(model, plan, spec).k
        rep = robust_report(model, plan, spec, np.array([1.0, 0.0]),
                            gain=K_are + 0.01)
        assert rep.gain_gap == pytest.approx(0.02, rel=1e-10)
        assert rep.verdicts["deployed_stable"] is True

    def test_report_composes_the_public_checks(self):
        # the report is the three certificates read off one lift, with no
        # value of its own
        model, spec, plan, x0, lift, _, _ = middle_factor_case(0)
        rep = robust_report(model, plan, spec, x0)
        lmi_max, lmi_ok = lmi_stability_check(lift, spec.Q, spec.R)
        lhs, rhs, sg_ok = small_gain_check(model, lift)
        pb = performance_bound(model, lift, spec, x0)
        assert (rep.lmi_max_eig, rep.small_gain_lhs, rep.small_gain_rhs) == (lmi_max, lhs, rhs)
        assert ((rep.epsilon, rep.alpha, rep.j2_bar, rep.bound, rep.actual_j2)
                == (pb.epsilon, pb.alpha, pb.j2_bar, pb.bound, pb.actual_j2))
        assert rep.gain_gap == 0.0
        assert rep.verdicts == {"lmi": lmi_ok, "small_gain": sg_ok,
                                "bound_holds": pb.holds, "deployed_stable": True}
