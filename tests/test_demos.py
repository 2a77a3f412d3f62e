"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SLOW = {"05_slope_experiment.py"}  # its Monte Carlo sweep, about 2 s; the others under 3 s


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.name, marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in sorted((ROOT / "demos").glob("*.py"))
])
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
