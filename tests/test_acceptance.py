"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured quantities (run with ``pytest -s tests/test_acceptance.py`` to see
them). Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from hlqr import matkit, rl
from hlqr.bench import BenchConfig, build_example, derive_initial_gain, run_bench
from hlqr.decomp import (
    ExcitationConfig,
    LqrSpec,
    construct_T,
    kron_lift,
    verify_plan,
)
from hlqr.errors import NotHurwitz, PreconditionFailed
from hlqr.lqr import AgentModel, evaluate_cost, hierarchical_model_based
from hlqr.robust import (
    HeteroModel,
    LtiSystem,
    h2_norm,
    hetero_lift,
    hinf_norm,
    lmi_stability_check,
    performance_bound,
    small_gain_check,
)
from conftest import random_controllable, random_laplacian, random_spd, random_stable


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_optimality_preservation():
    t0 = time.perf_counter()
    config = BenchConfig(N=100, seed=7, solvers=("model-based", "hierarchical-rl"))
    rep = run_bench(config)
    (mb, hrl) = rep.rows
    assert mb.status == "ok" and hrl.status == "ok"
    rel_j = (hrl.J - mb.J) / mb.J
    rel_k = np.linalg.norm(hrl.K - mb.K) / np.linalg.norm(mb.K)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "optimality preservation",
        rel_j <= 1e-3 and rel_k <= 1e-2 and elapsed <= 120.0,
        f"rel J gap {rel_j:.2e} <= 1e-3, rel K gap {rel_k:.2e} <= 1e-2, "
        f"{elapsed:.1f}s <= 120s",
    )


def test_criterion_2_structural_speedup():
    t0 = time.perf_counter()
    big_h = run_bench(BenchConfig(N=100, seed=7, solvers=("hierarchical-rl",),
                                  timeout_s=300.0))
    big_g = run_bench(BenchConfig(N=100, seed=7, solvers=("global-rl",),
                                  timeout_s=300.0))
    small = run_bench(BenchConfig(N=10, seed=11,
                                  solvers=("hierarchical-rl", "global-rl"),
                                  timeout_s=300.0))
    hier_ok = big_h.rows[0].status == "ok" and big_h.rows[0].wall_ms <= 300_000
    global_timed_out = big_g.rows[0].status == "timeout"
    small_ok = all(r.status == "ok" for r in small.rows)
    small_faster = small.rows[0].wall_ms < small.rows[1].wall_ms
    elapsed = time.perf_counter() - t0
    report(
        2,
        "structural speedup",
        hier_ok and global_timed_out and small_ok and small_faster and elapsed <= 600,
        f"N=100 hier {big_h.rows[0].wall_ms / 1e3:.1f}s/300s, "
        f"N=100 global status={big_g.rows[0].status}, "
        f"N=10 hier {small.rows[0].wall_ms / 1e3:.1f}s < "
        f"global {small.rows[1].wall_ms / 1e3:.1f}s, total {elapsed:.0f}s <= 600s",
    )


def _random_decomposable_spec(rng):
    """N <= 4, n <= 2, m = 1 draw that is decomposable by construction."""
    N = int(rng.integers(2, 5))
    n = int(rng.integers(1, 3))
    if rng.random() < 0.5:
        G1 = 0.5 * np.eye(N) + random_laplacian(rng, N)
        G2 = np.eye(N)
    else:
        V, _ = np.linalg.qr(rng.standard_normal((N, N)))
        G1 = V @ np.diag(1.0 + np.arange(N) + 0.1 * rng.random(N)) @ V.T
        G2 = V @ np.diag(1.0 + 0.5 * np.arange(N) + 0.1 * rng.random(N)) @ V.T
    A, B = random_controllable(rng, n, 1)
    Q0 = random_spd(rng, n)
    R0 = random_spd(rng, 1)
    return LqrSpec(N, n, 1, matkit.symmetrize(G1), matkit.symmetrize(G2), Q0, R0), A, B


def _stabilizing_cluster_gains(A, B, plan, seed):
    for attempt in range(6):
        k_agent = derive_initial_gain(A, B, seed=seed + 31 * attempt,
                                      depth=1.0 + 0.7 * attempt)
        lifted = [matkit.kron(np.eye(s), k_agent) for s in plan.cluster_sizes]
        if all(
            matkit.spectral_abscissa(
                matkit.kron(np.eye(s), A) - matkit.kron(np.eye(s), B) @ k
            ) < 0
            for s, k in zip(plan.cluster_sizes, lifted)
        ):
            return lifted
    raise AssertionError("no stabilizing initial gain found")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_mb = worst_mf = 0.0
    for trial in range(50):
        spec, A, B = _random_decomposable_spec(rng)
        plan = construct_T(spec.G1, spec.G2)
        K_assembled, _ = hierarchical_model_based(spec, plan, AgentModel(A, B))
        glob = AgentModel(matkit.kron(np.eye(spec.N), A), matkit.kron(np.eye(spec.N), B))
        _, K_opt = matkit.solve_are(glob.A, glob.B, spec.Q, spec.R)
        worst_mb = max(worst_mb,
                       np.linalg.norm(K_assembled - K_opt) / np.linalg.norm(K_opt))

        config = rl.HierarchicalConfig(
            excitation=ExcitationConfig(seed=trial),
            initial_gains=_stabilizing_cluster_gains(A, B, plan, seed=trial),
        )
        K_mf, _ = rl.hierarchical_solve(spec, plan, AgentModel(A, B), config)
        worst_mf = max(worst_mf,
                       np.linalg.norm(K_mf - K_opt) / np.linalg.norm(K_opt))
    elapsed = time.perf_counter() - t0
    report(
        3,
        "oracle equivalence",
        worst_mb <= 1e-7 and worst_mf <= 1e-2 and elapsed <= 120,
        f"worst model-based gap {worst_mb:.2e} <= 1e-7, "
        f"worst model-free gap {worst_mf:.2e} <= 1e-2, {elapsed:.0f}s <= 120s",
    )


def test_criterion_4_decomposition_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = {"orth": 0.0, "off": 0.0, "spec": 0.0, "sim": 0.0, "sim_rel": 0.0, "cost": 0.0}
    for _ in range(100):
        N = int(rng.integers(3, 7))
        n, m = 2, 1
        G1 = 0.5 * np.eye(N) + random_laplacian(rng, N)
        G2 = np.eye(N)
        plan = construct_T(G1, G2)
        check = verify_plan(plan, G1, G2)
        assert check.passed
        worst["orth"] = max(worst["orth"], check.orthogonality)
        worst["off"] = max(
            worst["off"],
            max(check.off_block_g1, check.off_block_g2) / np.linalg.norm(G1),
        )
        import scipy.linalg as sla

        eig_gap = np.max(
            np.abs(
                np.sort(np.linalg.eigvalsh(sla.block_diag(*plan.phi_blocks)))
                - np.linalg.eigvalsh(G1)
            )
        )
        worst["spec"] = max(worst["spec"], eig_gap)

        spec = LqrSpec(N, n, m, G1, G2, np.eye(n), np.eye(m))
        A, B = random_controllable(rng, n, m)
        glob = AgentModel(matkit.kron(np.eye(N), A), matkit.kron(np.eye(N), B))
        _, K = matkit.solve_are(glob.A, glob.B, spec.Q, spec.R)
        Tn, Tm = kron_lift(plan.T, n), kron_lift(plan.T, m)
        x0 = rng.standard_normal(n * N)
        x0 /= np.linalg.norm(x0)
        traj_x = rl.simulate(AgentModel(glob.A, glob.B), K, None, x0, 1e-3, 1.0)
        traj_xi = rl.simulate(
            AgentModel(Tn @ glob.A @ Tn.T, Tn @ glob.B @ Tm.T),
            Tm @ K @ Tn.T, None, Tn @ x0, 1e-3, 1.0,
        )
        sim_err = np.max(np.linalg.norm(traj_xi.x - traj_x.x @ Tn.T, axis=1))
        worst["sim"] = max(worst["sim"], sim_err)
        # Round-off in the two rollouts scales with the state, which grows
        # with ||K|| (peak ||x|| ~ 1e3 on the stiffest draws), so the bound
        # is relative to the trajectory's peak norm.
        peak = np.max(np.linalg.norm(traj_x.x, axis=1))
        worst["sim_rel"] = max(worst["sim_rel"], sim_err / peak)

        # cost additivity for the per-cluster optimal policies
        K_as, solved = hierarchical_model_based(spec, plan, AgentModel(A, B))
        J = evaluate_cost(glob.A - glob.B @ K_as, spec.Q + K_as.T @ spec.R @ K_as, x0)
        xi0 = Tn @ x0
        J_sum, off = 0.0, 0
        for (Pi, _), size in zip(solved, plan.cluster_sizes):
            xi = xi0[off : off + n * size]
            J_sum += float(xi @ Pi @ xi)
            off += n * size
        worst["cost"] = max(worst["cost"], abs(J - J_sum) / abs(J))
    elapsed = time.perf_counter() - t0
    ok = (
        worst["orth"] <= 1e-10
        and worst["off"] <= 1e-8
        and worst["spec"] <= 1e-8
        and worst["sim_rel"] <= 1e-8
        and worst["cost"] <= 1e-6
        and elapsed <= 120
    )
    report(
        4,
        "decomposition invariants",
        ok,
        f"orth {worst['orth']:.1e}<=1e-10, off-block {worst['off']:.1e}<=1e-8, "
        f"spectrum {worst['spec']:.1e}<=1e-8, sim {worst['sim']:.1e} abs, "
        f"{worst['sim_rel']:.1e}<=1e-8 of peak |x|, "
        f"cost {worst['cost']:.1e}<=1e-6, {elapsed:.0f}s <= 120s",
    )


def test_criterion_5_observability_positivity_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
    agree = 0
    for _ in range(100):
        N = int(rng.integers(2, 5))
        n = int(rng.integers(1, 3))
        singular = rng.random() < 0.5
        V, _ = np.linalg.qr(rng.standard_normal((N, N)))
        eigs = 0.2 + rng.random(N)
        if singular:
            eigs[0] = 0.0
        G1 = V @ np.diag(eigs) @ V.T
        Q0 = random_spd(rng, n)
        A = rng.standard_normal((n, n))
        C = matkit.sqrtm_psd(matkit.kron(matkit.symmetrize(G1), Q0))
        obs = matkit.obsv_rank(C, matkit.kron(np.eye(N), A)) == N * n
        agree += int(obs == (not singular))
    elapsed = time.perf_counter() - t0
    report(
        5,
        "observability iff G1 positive definite",
        agree == 100 and elapsed <= 30,
        f"{agree}/100 draws agree, {elapsed:.0f}s <= 30s",
    )


def test_criterion_6_robustness_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    lmi_pass = sg_pass = bounds = 0
    false_pos = viol = 0
    hetero_draws = 0
    while hetero_draws < 200:
        N = int(rng.integers(2, 5))
        n = int(rng.integers(1, 3))
        m = 1
        G1 = 0.5 * np.eye(N) + random_laplacian(rng, N)
        spec = LqrSpec(N, n, m, G1, np.eye(N), np.eye(n), np.eye(m))
        plan = construct_T(G1, np.eye(N))
        A0 = random_stable(rng, n)
        B0 = rng.standard_normal((n, m))
        mag = 10 ** rng.uniform(-2, 0.5)
        model = HeteroModel(
            [A0 + mag * rng.standard_normal((n, n)) for _ in range(N)],
            [B0 + mag * rng.standard_normal((n, m)) for _ in range(N)],
        )
        try:
            lift = hetero_lift(model, plan, spec)
        except (PreconditionFailed, NotHurwitz):
            continue
        hetero_draws += 1
        stable = matkit.spectral_abscissa(model.A - model.B @ lift.k) < 0
        _, lmi_ok = lmi_stability_check(lift, spec.Q, spec.R)
        if lmi_ok:
            lmi_pass += 1
            if not stable:
                false_pos += 1
        if matkit.spectral_abscissa(model.A) < 0:
            try:
                _, _, sg_ok = small_gain_check(model, lift)
            except NotHurwitz:
                sg_ok = False
            if sg_ok:
                sg_pass += 1
                if not stable:
                    false_pos += 1
            if stable:
                try:
                    pb = performance_bound(model, lift, spec, rng.standard_normal(n * N))
                except NotHurwitz:
                    continue
                bounds += 1
                if pb.actual_j2 > pb.bound * (1 + 1e-6):
                    viol += 1

    # homogeneous collapse on a few stable draws
    collapse_ok = True
    for _ in range(10):
        N, n, m = int(rng.integers(2, 4)), int(rng.integers(1, 3)), 1
        G1 = 0.5 * np.eye(N) + random_laplacian(rng, N)
        spec = LqrSpec(N, n, m, G1, np.eye(N), np.eye(n), np.eye(m))
        plan = construct_T(G1, np.eye(N))
        A0, B0 = random_stable(rng, n), rng.standard_normal((n, m))
        model = HeteroModel([A0.copy() for _ in range(N)],
                            [B0.copy() for _ in range(N)])
        lift = hetero_lift(model, plan, spec)
        scale = max(np.linalg.norm(model.A), 1.0)
        lhs, _, _ = small_gain_check(model, lift)
        pb = performance_bound(model, lift, spec, rng.standard_normal(n * N))
        collapse_ok &= np.linalg.norm(lift.a_tilde) <= 1e-12 * scale
        collapse_ok &= lhs <= 1e-10 and pb.epsilon <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = (
        false_pos == 0
        and viol == 0
        and collapse_ok
        and lmi_pass > 20
        and sg_pass > 20
        and bounds > 20
        and elapsed <= 300
    )
    report(
        6,
        "robustness soundness",
        ok,
        f"200 draws: lmi_pass={lmi_pass}, sg_pass={sg_pass}, bounds={bounds}, "
        f"false_pos={false_pos}, bound_violations={viol}, "
        f"homogeneous collapse={'ok' if collapse_ok else 'broken'}, "
        f"{elapsed:.0f}s <= 300s",
    )


def test_criterion_7_heterogeneous_benchmark():
    t0 = time.perf_counter()
    gaps, stable_flags = [], []
    for seed in range(100, 110):
        config = BenchConfig(N=100, seed=seed, hetero=0.5)
        rep = run_bench(config)
        mb, hrl = rep.rows
        assert mb.status == "ok" and hrl.status == "ok"
        _, model, _ = build_example(config)
        stable_flags.append(
            matkit.spectral_abscissa(model.A - model.B @ hrl.K) < 0
        )
        gaps.append((hrl.J - mb.J) / mb.J)
    median_gap = float(np.median(gaps))
    elapsed = time.perf_counter() - t0
    report(
        7,
        "heterogeneous benchmark",
        all(stable_flags) and median_gap <= 0.10 and elapsed <= 900,
        f"all 10 seeds stable={all(stable_flags)}, median rel cost gap "
        f"{median_gap:.3%} <= 10%, {elapsed:.0f}s <= 900s",
    )


def test_criterion_8_norm_units():
    t0 = time.perf_counter()
    hinf_val = hinf_norm(LtiSystem(np.array([[-1.0]]), np.eye(1), np.eye(1)))
    hinf_ok = abs(hinf_val - 1.0) <= 1e-6
    h2_ok = True
    for a in (0.5, 1.0, 4.0):
        val = h2_norm(LtiSystem(np.array([[-a]]), np.eye(1), np.eye(1)))
        h2_ok &= abs(val - np.sqrt(1.0 / (2.0 * a))) <= 1e-8
    elapsed = time.perf_counter() - t0
    report(
        8,
        "norm unit checks",
        hinf_ok and h2_ok and elapsed <= 5,
        f"hinf(1/(s+1))={hinf_val:.8f} within 1e-6, h2 analytic within 1e-8, "
        f"{elapsed:.1f}s <= 5s",
    )
