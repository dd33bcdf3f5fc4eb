"""Each demo runs to completion against the package in src.

Only the exit status and stderr are checked: the demos print wall times,
so their stdout differs from run to run.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# exact_small_samples.py enumerates every outcome of n = 12 and takes
# several seconds; the other demos take about one
SLOW = {"exact_small_samples.py"}


@pytest.mark.parametrize(
    "demo",
    [
        pytest.param(p.name, marks=[pytest.mark.slow] if p.name in SLOW else [])
        for p in sorted((ROOT / "demos").glob("*.py"))
    ],
)
def test_demo_runs_cleanly(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=600,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
