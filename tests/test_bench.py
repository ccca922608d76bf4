import json

import numpy as np
import pytest

from hlqr import bench, matkit, rl
from hlqr.bench import BenchConfig, build_example, derive_initial_gain, gen_graph, run_bench
from hlqr.decomp import ExcitationConfig, single_cluster_plan
from hlqr.errors import PreconditionFailed
from hlqr.lqr import AgentModel
from hlqr.rl import HierarchicalConfig, hierarchical_solve


class TestGenGraph:
    def test_two_nodes_forced(self):
        L = gen_graph(2, seed=0)
        np.testing.assert_array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_laplacian_identities(self):
        for seed in range(5):
            L = gen_graph(12, seed)
            np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-12)
            np.testing.assert_allclose(L, L.T)
            eigs = np.linalg.eigvalsh(L)
            assert eigs[0] >= -1e-10
            ones = np.ones(12)
            np.testing.assert_allclose(L @ ones, 0.0, atol=1e-12)

    def test_connected(self):
        # a graph is connected iff its Laplacian's second eigenvalue is positive
        for seed in range(5):
            L = gen_graph(9, seed)
            assert np.linalg.eigvalsh(L)[1] > 1e-8

    def test_deterministic(self):
        np.testing.assert_array_equal(gen_graph(15, 3), gen_graph(15, 3))


class TestBuildExample:
    def test_homogeneous_blocks_identical(self):
        spec, model, x0 = build_example(BenchConfig(N=2, seed=1))
        np.testing.assert_array_equal(model.A_blocks[0], model.A_blocks[1])
        expected_A = np.block(
            [[np.zeros((2, 2)), np.eye(2)], [np.zeros((2, 2)), -np.eye(2)]]
        )
        np.testing.assert_array_equal(model.A_blocks[0], expected_A)
        np.testing.assert_array_equal(
            model.B_blocks[0], np.vstack([np.zeros((2, 2)), np.eye(2)])
        )
        assert x0.shape == (8,)
        np.testing.assert_array_equal(x0[:4], x0[4:])

    def test_zero_heterogeneity_equals_homogeneous(self):
        assert BenchConfig(N=3, seed=2, hetero=0.0).mode == "homogeneous"
        assert BenchConfig(N=3, seed=2, hetero=0.1).mode == "heterogeneous"

    def test_benchmark_dimensions(self):
        spec, model, x0 = build_example(BenchConfig(N=100, seed=0))
        assert spec.n * spec.N == 400
        assert spec.m * spec.N == 200
        assert model.A.shape == (400, 400)
        assert x0.shape == (400,)

    def test_config_validation(self):
        with pytest.raises(PreconditionFailed):
            BenchConfig(N=1, seed=0)
        with pytest.raises(PreconditionFailed):
            BenchConfig(N=3, seed=0, hetero=0.95)
        with pytest.raises(PreconditionFailed):
            BenchConfig(N=3, seed=0, solvers=("simplex",))


class TestDeriveInitialGain:
    def test_stabilizes_nominal(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        K = derive_initial_gain(A, B, seed=0)
        assert matkit.spectral_abscissa(A - B @ K) < 0


class TestRunBench:
    def test_toy_all_solvers_agree(self, tmp_path):
        config = BenchConfig(
            N=2, seed=3,
            solvers=("model-based", "hierarchical-rl", "global-rl"),
            out=str(tmp_path / "report"),
        )
        report = run_bench(config)
        assert [r.status for r in report.rows] == ["ok"] * 3
        J = [r.J for r in report.rows]
        assert abs(J[1] - J[0]) <= 1e-3 * J[0]
        assert abs(J[2] - J[0]) <= 1e-3 * J[0]
        assert report.rows[0].gain_gap_fro == 0.0
        # emitted files
        csv = (tmp_path / "report" / "bench.csv").read_text()
        assert csv.splitlines()[0] == "solver,wall_ms,J,gain_gap_fro,status"
        obj = json.loads((tmp_path / "report" / "bench.json").read_text())
        assert [row["solver"] for row in obj["rows"]] == list(config.solvers)

    def test_reproducible_gains_and_costs(self):
        a = run_bench(BenchConfig(N=3, seed=9))
        b = run_bench(BenchConfig(N=3, seed=9))
        for ra, rb in zip(a.rows, b.rows):
            assert ra.J == rb.J
            np.testing.assert_array_equal(ra.K, rb.K)

    def test_hierarchical_shrinks_cubed_work(self):
        report = run_bench(BenchConfig(N=6, seed=4, solvers=("hierarchical-rl",)))
        plan = report.plan
        assert plan.r > 1
        n = 4
        cubed = sum((n * s) ** 3 for s in plan.cluster_sizes)
        assert cubed < (n * 6) ** 3

    def test_global_row_is_one_cluster_hierarchical_solve(self):
        config = BenchConfig(N=2, seed=3, solvers=("global-rl",))
        row = run_bench(config).rows[0]
        spec, model, _ = build_example(config)
        plan = single_cluster_plan(spec.N)
        agent = AgentModel(model.A_blocks[0], model.B_blocks[0])  # the nominal agent
        k_agent = derive_initial_gain(agent.A, agent.B, seed=config.seed)
        K, _ = hierarchical_solve(
            spec, plan, agent, HierarchicalConfig(ExcitationConfig(seed=config.seed),
                                                  [matkit.kron(np.eye(spec.N), k_agent)]))
        assert row.status == "ok"
        np.testing.assert_array_equal(row.K, K)
        assert [c["size"] for c in row.detail["perCluster"]] == [spec.N]

    @staticmethod
    def patch_memory(monkeypatch, nbytes):
        pages = {"SC_PHYS_PAGES": nbytes // 4096, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(rl.os, "sysconf", lambda name: pages[name])

    def test_timeout_reported(self, monkeypatch):
        # ample memory, so the refusal comes from the deadline projection
        self.patch_memory(monkeypatch, 1 << 50)
        config = BenchConfig(N=30, seed=5, solvers=("global-rl",), timeout_s=0.5)
        report = run_bench(config)
        assert report.rows[0].status == "timeout"
        assert report.rows[0].J is None
        assert report.rows[0].detail["reason"].startswith("projected completion")

    def test_memory_refusal_reported(self, monkeypatch):
        # the N=30 global regression needs ~11.7 GB; a 1 GiB host refuses it
        self.patch_memory(monkeypatch, 1 << 30)
        config = BenchConfig(N=30, seed=5, solvers=("global-rl",), timeout_s=60.0)
        row = run_bench(config).rows[0]
        assert row.status == "timeout"
        assert row.J is None
        assert "exceeds physical memory" in row.detail["reason"]
