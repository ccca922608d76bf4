import os
import subprocess
import sys
from pathlib import Path

import pytest

import hlqr

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["example1_homogeneous.py", "example2_heterogeneous.py"])
def test_example_script_runs(script):
    # each example at N = 6 in a fresh interpreter: exit 0 and a
    # hierarchical-rl row whose status is ok
    src = str(Path(hlqr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--n", "6"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    rows = [line.split(",") for line in out.stdout.splitlines()]
    assert any(row[0] == "hierarchical-rl" and row[-1] == "ok" for row in rows), out.stdout
