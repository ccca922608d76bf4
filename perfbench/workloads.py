"""Workloads of the hlqr benchmark: seeded inputs, the timed operations
and the checks each operation's output must pass.

Every workload runs a fixed cycle of two operations, a primary and a
secondary one, in a closed loop: one operation at a time, each starting
after the previous one returns. Each workload is sized so that one layer
of hlqr does most of its work:

- ``hier-hom-n100``: hierarchical model-free solve of the homogeneous
  formation at N=100 (``rl.simulate`` dominates) against the model-based
  oracle, one 400-state ``solve_are``.
- ``global-n8``: unstructured model-free solve of the formation at N=8,
  one 32-state cluster with 2080 windows, so the off-policy regression
  carries a large share; the hierarchical solve of the same problem is
  the secondary operation.
- ``certify-het-n20``: certification (``robust.robust_report``) of the gain
  learned on 20 open-loop stable, heterogeneous mass-spring-damper agents,
  so every certificate, and ``hinf_norm`` above all, is computed.
- ``structured-n1000``: model-based solve through the structure at N=1000
  (``construct_T``, 1000 tiny ``solve_are`` calls, ``assemble_gain``), with
  the decomposition alone as the secondary operation.

``BENCHMARK.json`` lists ``hier-hom-n100`` and ``certify-het-n20``, which
between them exercise every layer (decomp, rl, lqr, matkit, robust). The
other two run by name but are left out of it: four workloads leave about
twenty seconds of measurement per run in the benchmark's time budget, one
sample of each operation, and on a shared 2-core host their medians spread
by more than the bounds from run to run.

Operations call hlqr through module attributes (``decomp.construct_T``,
``rl.hierarchical_solve``, ...) so that the tracer in ``spans.py`` sees them.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from hlqr import bench, decomp, lqr, matkit, rl, robust

# Criterion-1 tolerances of the acceptance suite.
J_GAP_TOL = 1e-3
K_GAP_TOL = 1e-2
# The structured gain is exact algebra on top of per-cluster Riccati solves.
ASSEMBLY_TOL = 1e-9
ARE_RESIDUAL_TOL = 1e-8
PROBE_VECTORS = 8


@dataclass(eq=False)
class Inputs:
    """What a user hands hlqr: the structured spec, the plant (only ever
    used as a simulation target by the model-free solvers), the initial
    state and a stabilizing per-agent initial gain."""

    seed: int
    spec: decomp.LqrSpec
    model: robust.HeteroModel
    x0: np.ndarray
    k_agent: np.ndarray
    homogeneous: bool


def formation_inputs(N: int, seed: int) -> Inputs:
    """The double-integrator formation of ``bench.build_example``."""
    spec, model, x0 = bench.build_example(bench.BenchConfig(N=N, seed=seed))
    k_agent = bench.derive_initial_gain(model.A_blocks[0], model.B_blocks[0], seed=seed)
    return Inputs(seed, spec, model, x0, k_agent, homogeneous=True)


def msd_agent(k: float, c: float, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Planar mass-spring-damper agent, n=4, m=2; Hurwitz for k, c, mass > 0."""
    z, eye = np.zeros((2, 2)), np.eye(2)
    A = np.block([[z, eye], [-(k / mass) * eye, -(c / mass) * eye]])
    B = np.vstack([z, eye / mass])
    return A, B


def msd_inputs(N: int, seed: int, spread: float = 0.05) -> Inputs:
    """N mass-spring-damper agents with stiffness, damping and mass each
    drawn from 1 +- spread, weights G1 = 0.5 I + L, G2 = I, Q0 = I, R0 = I.

    The small-gain test is a sufficient condition: at N=20 and a spread of
    0.1 it is inconclusive for about one seed in twenty (lhs/rhs up to
    1.05), while at 0.05 its lhs/rhs stays below 0.6 over seeds 1-200.
    """
    rng = np.random.default_rng(seed)
    L = bench.gen_graph(N, seed)
    spec = decomp.LqrSpec(N=N, n=4, m=2, G1=0.5 * np.eye(N) + L, G2=np.eye(N),
                          Q0=np.eye(4), R0=np.eye(2))
    ks, cs, masses = (1.0 + rng.uniform(-spread, spread, N) for _ in range(3))
    pairs = [msd_agent(*p) for p in zip(ks, cs, masses)]
    model = robust.HeteroModel([A for A, _ in pairs], [B for _, B in pairs])
    x0 = np.kron(np.ones(N), rng.uniform(0.0, 1.0, 4))
    k_agent = bench.derive_initial_gain(*msd_agent(1.0, 1.0, 1.0), seed=seed)
    return Inputs(seed, spec, model, x0, k_agent, homogeneous=False)


# ---------------------------------------------------------------------------
# Operations. Each returns what its check needs.

def hier_solve(inp: Inputs):
    """construct_T -> hierarchical model-free solve -> assembled global K."""
    plan = decomp.construct_T(inp.spec.G1, inp.spec.G2)
    gains = [matkit.kron(np.eye(s), inp.k_agent) for s in plan.cluster_sizes]
    config = rl.HierarchicalConfig(
        excitation=decomp.ExcitationConfig(seed=inp.seed), initial_gains=gains
    )
    plant = (
        lqr.AgentModel(inp.model.A_blocks[0], inp.model.B_blocks[0])
        if inp.homogeneous
        else inp.model
    )
    K, _ = rl.hierarchical_solve(inp.spec, plan, plant, config)
    return plan, K


def oracle(inp: Inputs):
    """Model-based Riccati solve of the global nN-state problem."""
    return matkit.solve_are(inp.model.A, inp.model.B, inp.spec.Q, inp.spec.R)


def global_rl(inp: Inputs):
    """Unstructured model-free solve: the whole network as one cluster."""
    spec = inp.spec
    nN, mN = spec.n * spec.N, spec.m * spec.N
    problem = decomp.ClusterProblem(
        state_dim=nN,
        input_dim=mN,
        Qblock=spec.Q,
        Rblock=spec.R,
        initial_gain=matkit.kron(np.eye(spec.N), inp.k_agent),
        excitation=decomp.ExcitationConfig(seed=inp.seed),
        sample_interval=0.1,
        window_count=2 * decomp.unknown_count(nN, mN),
    )
    plant = lqr.AgentModel(inp.model.A, inp.model.B)
    batch = rl.collect_batch(plant, problem, inp.x0, 1e-3)
    K, _, _ = rl.offpolicy_pi(batch, problem, plant=plant)
    return K


def structured_mb(inp: Inputs):
    """construct_T -> project_problem -> one solve_are per cluster ->
    assemble_gain, for identical agents."""
    spec = inp.spec
    A, B = inp.model.A_blocks[0], inp.model.B_blocks[0]
    plan = decomp.construct_T(spec.G1, spec.G2)
    problems = decomp.project_problem(spec, plan)
    solved = [
        matkit.solve_are(matkit.kron(np.eye(s), A), matkit.kron(np.eye(s), B),
                         p.Qblock, p.Rblock)
        for s, p in zip(plan.cluster_sizes, problems)
    ]
    K = lqr.assemble_gain(plan, [k for _, k in solved], spec.n, spec.m)
    return plan, problems, solved, K


def decompose(inp: Inputs):
    """The decomposition alone, as ``hlqr decompose`` computes it."""
    return decomp.construct_T(inp.spec.G1, inp.spec.G2)


def certify(inp: Inputs, plan, K):
    """Robustness certificates with the learned gain deployed."""
    return robust.robust_report(inp.model, plan, inp.spec, inp.x0, gain=K)


# ---------------------------------------------------------------------------
# Checks. Each returns None when the output is correct, else the reason.

def _rel_gap(K, K_ref) -> float:
    return float(np.linalg.norm(K - K_ref) / np.linalg.norm(K_ref))


def _riccati_reason(A, B, Q, R, P, K) -> str | None:
    bound = ARE_RESIDUAL_TOL * np.linalg.norm(P) * max(1.0, np.linalg.norm(A)) ** 2
    residual = matkit.are_residual(A, B, Q, R, P)
    if not residual <= bound:
        return f"Riccati residual {residual:.3e} above {bound:.3e}"
    if not matkit.spectral_abscissa(A - B @ K) < 0:
        return "closed loop is not Hurwitz"
    return None


def check_oracle(inp: Inputs, result) -> str | None:
    P, K = result
    return _riccati_reason(inp.model.A, inp.model.B, inp.spec.Q, inp.spec.R, P, K)


def check_optimal(inp: Inputs, K, K_opt) -> str | None:
    """Relative J gap and K gap of a learned gain against the oracle."""
    spec, A, B = inp.spec, inp.model.A, inp.model.B

    def cost(G):
        return lqr.evaluate_cost(A - B @ G, spec.Q + G.T @ spec.R @ G, inp.x0)

    k_gap = _rel_gap(K, K_opt)
    if not k_gap <= K_GAP_TOL:
        return f"relative K gap {k_gap:.3e} above {K_GAP_TOL}"
    j_opt = cost(K_opt)
    j_gap = abs(cost(K) - j_opt) / j_opt
    if not j_gap <= J_GAP_TOL:
        return f"relative J gap {j_gap:.3e} above {J_GAP_TOL}"
    return None


def check_near(K, K_ref) -> str | None:
    gap = _rel_gap(K, K_ref)
    return None if gap <= K_GAP_TOL else f"relative K gap {gap:.3e} above {K_GAP_TOL}"


def cluster_reference(inp: Inputs, plan) -> np.ndarray:
    """Model-based gain on the same cluster plants the learner simulates:
    the point the hierarchical model-free solve must converge to."""
    spec = inp.spec
    problems = decomp.project_problem(spec, plan)
    plants = rl.cluster_plants(inp.model, plan, spec)
    gains = [matkit.solve_are(c.A, c.B, p.Qblock, p.Rblock)[1]
             for c, p in zip(plants, problems)]
    return lqr.assemble_gain(plan, gains, spec.n, spec.m)


def _lift_apply(T: np.ndarray, d: int, V: np.ndarray) -> np.ndarray:
    """(T (x) I_d) V without forming the Kronecker product."""
    N, k = T.shape[0], V.shape[1]
    return (T @ V.reshape(N, d * k)).reshape(N * d, k)


def check_plan(inp: Inputs, plan) -> str | None:
    check = decomp.verify_plan(plan, inp.spec.G1, inp.spec.G2)
    return None if check.passed else f"verify_plan failed: {check}"


def check_structured(inp: Inputs, result) -> str | None:
    """verify_plan passes, every cluster gain solves its Riccati equation,
    and Tm K Tn' equals diag(k_i), tested on random probe vectors."""
    plan, problems, solved, K = result
    spec = inp.spec
    reason = check_plan(inp, plan)
    if reason:
        return reason
    A, B = inp.model.A_blocks[0], inp.model.B_blocks[0]
    for i, (s, p, (P, k)) in enumerate(zip(plan.cluster_sizes, problems, solved)):
        reason = _riccati_reason(matkit.kron(np.eye(s), A), matkit.kron(np.eye(s), B),
                                 p.Qblock, p.Rblock, P, k)
        if reason:
            return f"cluster {i}: {reason}"
    V = np.random.default_rng(inp.seed).standard_normal((spec.n * spec.N, PROBE_VECTORS))
    got = _lift_apply(plan.T, spec.m, K @ _lift_apply(plan.T.T, spec.n, V))
    want = np.empty_like(got)
    row = col = 0
    for _, k in solved:
        want[row:row + k.shape[0]] = k @ V[col:col + k.shape[1]]
        row, col = row + k.shape[0], col + k.shape[1]
    err = float(np.linalg.norm(got - want) / np.linalg.norm(want))
    if not err <= ASSEMBLY_TOL:
        return f"Tm K Tn' differs from diag(k_i) by {err:.3e} relative"
    return None


def check_certified(report) -> str | None:
    failed = sorted(k for k, v in report.verdicts.items() if v is not True)
    return None if not failed else f"verdicts not True: {failed}"


# ---------------------------------------------------------------------------
# Cycles: the unit of work the closed loop repeats.

@dataclass(eq=False)
class Outcome:
    """One attempted operation: its wall time, output, and the reason it
    failed (an exception type or a failed check), if it did."""

    label: str
    seconds: float = float("nan")
    value: object = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(eq=False)
class Cycle:
    """Runs one cycle's operations and their checks. ``span`` wraps each
    operation's timed call (a tracer root span, or nothing)."""

    inp: Inputs
    span: Callable | None = None
    outcomes: list[Outcome] = field(default_factory=list)

    def op(self, label: str, fn, *args) -> Outcome:
        out = Outcome(label)
        self.outcomes.append(out)
        try:
            with self.span(f"op.{label}") if self.span else nullcontext():
                t0 = time.perf_counter()
                out.value = fn(*args)
                out.seconds = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
            out.error = type(exc).__name__
        return out

    @staticmethod
    def check(out: Outcome, fn, *args) -> None:
        """Apply a check to a successful outcome; a check that raises
        counts as a failed check."""
        if not out.ok:
            return
        try:
            reason = fn(*args)
        except Exception as exc:  # noqa: BLE001
            reason = f"check raised {type(exc).__name__}"
        if reason:
            out.error = f"check: {reason}"


def gain_of(out: Outcome):
    """The gain an operation produced (its output or the last element of
    it), or None for outputs that are not a gain."""
    value = out.value[-1] if isinstance(out.value, tuple) else out.value
    return value if isinstance(value, np.ndarray) else None


def cycle_hier_hom(c: Cycle) -> None:
    hier = c.op("hier_solve_s", hier_solve, c.inp)
    orc = c.op("oracle_s", oracle, c.inp)
    c.check(orc, check_oracle, c.inp, orc.value)
    c.check(hier, lambda: check_optimal(c.inp, hier.value[1], orc.value[1]) if orc.ok
            else "reference oracle_s unavailable")


def cycle_global(c: Cycle) -> None:
    glob = c.op("global_rl_s", global_rl, c.inp)
    hier = c.op("hier_solve_s", hier_solve, c.inp)
    # The 32-state oracle costs milliseconds; each check solves its own.
    c.check(glob, lambda: check_near(glob.value, oracle(c.inp)[1]))
    c.check(hier, lambda: check_near(hier.value[1], oracle(c.inp)[1]))


def cycle_certify(c: Cycle) -> None:
    hier = c.op("hier_solve_s", hier_solve, c.inp)
    c.check(hier, lambda: check_near(hier.value[1], cluster_reference(c.inp, hier.value[0])))
    if not hier.ok:
        c.outcomes.append(Outcome("certify_s", error=f"reference {hier.label} unavailable"))
        return
    plan, K = hier.value
    cert = c.op("certify_s", certify, c.inp, plan, K)
    c.check(cert, check_certified, cert.value)


def cycle_structured(c: Cycle) -> None:
    smb = c.op("structured_mb_s", structured_mb, c.inp)
    c.check(smb, check_structured, c.inp, smb.value)
    dec = c.op("decompose_s", decompose, c.inp)
    c.check(dec, check_plan, c.inp, dec.value)


@dataclass(frozen=True)
class Workload:
    name: str
    N: int
    make_inputs: Callable[[int, int], Inputs]
    cycle: Callable[[Cycle], None]
    primary: str          # operation label reported as primary_s
    secondary: str        # operation label reported as secondary_s


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hier-hom-n100", 100, formation_inputs, cycle_hier_hom,
                 "hier_solve_s", "oracle_s"),
        Workload("global-n8", 8, formation_inputs, cycle_global,
                 "global_rl_s", "hier_solve_s"),
        Workload("certify-het-n20", 20, msd_inputs, cycle_certify,
                 "certify_s", "hier_solve_s"),
        Workload("structured-n1000", 1000, formation_inputs, cycle_structured,
                 "structured_mb_s", "decompose_s"),
    )
}
