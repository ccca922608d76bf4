import numpy as np
import pytest

from hlqr import matkit
from hlqr.decomp import LqrSpec, construct_T, kron_lift
from hlqr.errors import NonzeroFeedthrough, NotHurwitz, PreconditionFailed
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
from conftest import random_laplacian, random_stable


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
        At, Bt, a_hat, p_hat, K = hetero_lift(model, plan, spec)
        scale = np.linalg.norm(model.A)
        assert np.linalg.norm(At) <= 1e-12 * scale
        assert np.linalg.norm(Bt) <= 1e-12 * max(np.linalg.norm(model.B), 1.0)

    def test_two_agent_mismatch_off_diagonal(self):
        # hand computation: T' diag(-1, -0.8) T has off-diagonal -0.1, so
        # the mismatch matrix is [[-0.1, 0.1], [0.1, 0.1]]
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        At, Bt, a_hat, p_hat, K = hetero_lift(scalar_pair_model(), plan, spec)
        assert np.allclose(np.abs(At), 0.1, atol=1e-12)
        np.testing.assert_allclose(Bt, 0.0, atol=1e-14)
        assert matkit.spectral_abscissa(a_hat) < 0

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
            _, _, _, _, K_are = hetero_lift(model, plan, spec)
            config = HierarchicalConfig(initial_gains=[np.array([[1.5]])] * plan.r)
            K_learn, _ = hierarchical_solve(spec, plan, model, config)
            gaps.append(np.linalg.norm(K_learn - K_are))
        assert gaps[0] <= 1e-3
        assert gaps[1] <= 0.05


class TestLmiCheck:
    def test_homogeneous_passes(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = HeteroModel([np.array([[-1.0]])] * 2, [np.eye(1)] * 2)
        At, Bt, _, p_hat, _ = hetero_lift(model, plan, spec)
        Bhat = _bhat(model, plan)
        max_eig, ok = lmi_stability_check(At, Bt, p_hat, spec.Q, spec.R, Bhat)
        assert ok and max_eig < 0

    def test_small_mismatch_passes_and_is_truly_stable(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = scalar_pair_model()
        At, Bt, _, p_hat, K = hetero_lift(model, plan, spec)
        Bhat = _bhat(model, plan)
        _, ok = lmi_stability_check(At, Bt, p_hat, spec.Q, spec.R, Bhat)
        assert ok
        assert matkit.spectral_abscissa(model.A - model.B @ K) < 0

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
                At, Bt, _, p_hat, K = hetero_lift(model, plan, spec)
            except (PreconditionFailed, NotHurwitz):
                continue
            Bhat = _bhat(model, plan)
            _, ok = lmi_stability_check(At, Bt, p_hat, spec.Q, spec.R, Bhat)
            stable = matkit.spectral_abscissa(model.A - model.B @ K) < 0
            if not stable:
                saw_unstable = True
            if ok:
                assert stable
        assert saw_unstable


def _bhat(model, plan):
    Tn = kron_lift(plan.T, model.n)
    Tm = kron_lift(plan.T, model.m)
    return Tn.T @ model.B @ Tm


class TestHinfNorm:
    def test_first_order_lag(self):
        sys = LtiSystem(np.array([[-1.0]]), np.eye(1), np.eye(1))
        assert hinf_norm(sys) == pytest.approx(1.0, abs=1e-6)

    def test_dc_gain(self):
        sys = LtiSystem(np.array([[-4.0]]), np.eye(1), 2.0 * np.eye(1))
        assert hinf_norm(sys) == pytest.approx(0.5, abs=1e-6)

    def test_lightly_damped_peak_matches_sweep(self):
        A = np.array([[0.0, 1.0], [-1.0, -0.1]])
        sys = LtiSystem(A, np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]))
        val = hinf_norm(sys, tol=1e-8)
        # oracle: dense frequency sweep of |C (jw I - A)^-1 B|
        omegas = np.logspace(-3, 3, 1_000_000)
        denom = (1.0 - omegas**2) + 1j * 0.1 * omegas
        sweep = np.max(np.abs(1.0 / denom))
        assert val == pytest.approx(sweep, rel=1e-6)

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

    def test_rejects_feedthrough(self):
        with pytest.raises(NonzeroFeedthrough):
            h2_norm(LtiSystem(np.array([[-1.0]]), np.eye(1), np.eye(1), np.eye(1)))

    def test_rejects_unstable(self):
        with pytest.raises(NotHurwitz):
            h2_norm(LtiSystem(np.array([[0.5]]), np.eye(1), np.eye(1)))


class TestSmallGain:
    def test_homogeneous_lhs_vanishes(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = HeteroModel([np.array([[-1.0]])] * 2, [np.eye(1)] * 2)
        At, Bt, a_hat, _, K = hetero_lift(model, plan, spec)
        lhs, rhs, ok = small_gain_check(model, K, a_hat, At, Bt)
        assert lhs <= 1e-10
        assert ok

    def test_small_mismatch_passes_and_loop_is_stable(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = scalar_pair_model()
        At, Bt, a_hat, _, K = hetero_lift(model, plan, spec)
        lhs, rhs, ok = small_gain_check(model, K, a_hat, At, Bt)
        assert ok and lhs < rhs
        assert matkit.spectral_abscissa(model.A - model.B @ K) < 0

    def test_open_loop_unstable_is_inapplicable(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        model = HeteroModel([A] * 2, [B] * 2)
        spec4 = LqrSpec(2, 2, 1, spec.G1, np.eye(2), np.eye(2), np.eye(1))
        At, Bt, a_hat, _, K = hetero_lift(model, plan, spec4)
        with pytest.raises(NotHurwitz):
            small_gain_check(model, K, a_hat, At, Bt)


class TestPerformanceBound:
    def test_homogeneous_collapse(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = HeteroModel([np.array([[-1.0]])] * 2, [np.eye(1)] * 2)
        _, _, _, _, K = hetero_lift(model, plan, spec)
        pb = performance_bound(model, K, plan, spec, np.array([1.0, -0.5]))
        assert pb.epsilon <= 1e-10
        assert pb.bound == pytest.approx(pb.j2_bar, rel=1e-9)
        assert pb.actual_j2 == pytest.approx(pb.j2_bar, rel=1e-6)

    def test_small_mismatch_bound_holds(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = scalar_pair_model()
        _, _, _, _, K = hetero_lift(model, plan, spec)
        pb = performance_bound(model, K, plan, spec, np.array([1.0, 1.0]))
        assert pb.holds
        assert pb.actual_j2 <= pb.bound

    def test_zero_initial_state(self):
        spec = scalar_pair_spec()
        plan = construct_T(spec.G1, spec.G2)
        model = scalar_pair_model()
        _, _, _, _, K = hetero_lift(model, plan, spec)
        pb = performance_bound(model, K, plan, spec, np.zeros(2))
        assert pb.j2_bar == pytest.approx(0.0, abs=1e-12)
        assert pb.actual_j2 == pytest.approx(0.0, abs=1e-12)
        assert pb.bound >= 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_middle_factor_matches_frequency_sweep(self, seed):
        # ||G_ey W||_inf recovered from the bound against a direct sweep of
        # sigma_max(G_ey (I - G_sigma G_eu)^-1) built from the transfer
        # functions; a sign or block error in the realization moves it
        rng = np.random.default_rng(seed)
        N, n = 3, 2
        G1 = 0.5 * np.eye(N) + random_laplacian(rng, N)
        spec = LqrSpec(N, n, 1, G1, np.eye(N), np.eye(n), np.eye(1))
        plan = construct_T(G1, np.eye(N))
        A0, B0 = random_stable(rng, n), rng.standard_normal((n, 1))
        model = HeteroModel([A0 + 0.1 * rng.standard_normal((n, n)) for _ in range(N)],
                            [B0 + 0.1 * rng.standard_normal((n, 1)) for _ in range(N)])
        x0 = rng.standard_normal(n * N)
        At, Bt, a_hat, _, K = hetero_lift(model, plan, spec)
        pb = performance_bound(model, K, plan, spec, x0)
        mismatch_out = At - Bt @ K
        x0col = x0.reshape(-1, 1)
        du_inf = hinf_norm(LtiSystem(a_hat, x0col, -K))
        free_h2 = h2_norm(LtiSystem(model.A, x0col, mismatch_out))
        middle = (pb.bound - pb.j2_bar) / (pb.epsilon * du_inf + free_h2)

        omega = np.concatenate([[0.0], np.logspace(-3, 3, 20001)])
        jw = 1j * omega[:, None, None] * np.eye(n * N)
        res_hat = np.linalg.inv(jw - a_hat)
        Cy = np.vstack([matkit.sqrtm_psd(spec.Q), -matkit.sqrtm_psd(spec.R) @ K])
        g_eu = -K @ res_hat
        g_ey = Cy @ res_hat
        g_sigma = mismatch_out @ np.linalg.solve(jw - model.A, model.B)
        W = np.linalg.inv(np.eye(n * N) - g_sigma @ g_eu)
        sweep = np.linalg.svd(g_ey @ W, compute_uv=False)[:, 0].max()
        assert middle == pytest.approx(sweep, rel=1e-5)


class TestSoundness:
    def test_no_false_positives_and_bound_valid(self, rng):
        lmi_passes = sg_passes = bounds_checked = 0
        for _ in range(60):
            mag = 10 ** rng.uniform(-2, 0.5)
            spec, plan, model = draw_setup(rng, mag)
            try:
                At, Bt, a_hat, p_hat, K = hetero_lift(model, plan, spec)
            except (PreconditionFailed, NotHurwitz):
                continue
            stable = matkit.spectral_abscissa(model.A - model.B @ K) < 0
            _, lmi_ok = lmi_stability_check(
                At, Bt, p_hat, spec.Q, spec.R, _bhat(model, plan)
            )
            if lmi_ok:
                lmi_passes += 1
                assert stable
            if matkit.spectral_abscissa(model.A) < 0:
                try:
                    _, _, sg_ok = small_gain_check(model, K, a_hat, At, Bt)
                except NotHurwitz:
                    sg_ok = False
                if sg_ok:
                    sg_passes += 1
                    assert stable
                if stable:
                    try:
                        pb = performance_bound(model, K, plan, spec,
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
        _, _, _, _, K_are = hetero_lift(model, plan, spec)
        rep = robust_report(model, plan, spec, np.array([1.0, 0.0]),
                            gain=K_are + 0.01)
        assert rep.gain_gap == pytest.approx(0.02, rel=1e-10)
        assert rep.verdicts["deployed_stable"] is True
