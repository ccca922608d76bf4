import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hlqr
from hlqr.bench import gen_graph
from hlqr.matkit import as_matrix, matrix_to_json, spectral_abscissa


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_spd(rng, k, scale=1.0):
    """Random symmetric positive definite matrix."""
    M = rng.standard_normal((k, k))
    return scale * (M @ M.T + k * np.eye(k))


def random_symmetric(rng, k, scale=1.0):
    M = rng.standard_normal((k, k))
    return scale * 0.5 * (M + M.T)


def random_laplacian(rng, N):
    """Laplacian of a random connected graph."""
    return gen_graph(N, int(rng.integers(0, 2**31)))


def diagonal_blocks(plan, G):
    """The plan's diagonal blocks of T G T', one per cluster."""
    M = plan.T @ G @ plan.T.T
    return [M[o:o + s, o:o + s] for o, s in zip(plan.offsets(), plan.cluster_sizes)]


def random_controllable(rng, n, m, max_tries=50):
    """Random (A, B) with a full-rank controllability matrix."""
    from hlqr.matkit import ctrb_rank

    for _ in range(max_tries):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        if ctrb_rank(A, B) == n:
            return A, B
    raise AssertionError("could not draw a controllable pair")


def random_stable(rng, n, margin=0.5):
    """Random Hurwitz matrix."""
    A = rng.standard_normal((n, n))
    return A - (spectral_abscissa(A) + margin + rng.random()) * np.eye(n)


def save_matrix_json(M, path) -> None:
    """Write M as a {"rows", "cols", "data"} matrix file."""
    Path(path).write_text(json.dumps(matrix_to_json(M)))


def save_matrix_csv(M, path) -> None:
    """Write M as a headerless CSV matrix file, 17 significant digits."""
    lines = [",".join(f"{v:.17g}" for v in row) for row in as_matrix(M)]
    Path(path).write_text("\n".join(lines) + "\n")


def run_fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports hlqr from
    the tree under test."""
    src = str(Path(hlqr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout
