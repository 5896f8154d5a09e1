import os
import subprocess
import sys
from pathlib import Path

import pytest

import xnb

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    missing = [name for name in xnb.__all__ if not hasattr(xnb, name)]
    assert missing == []
    assert len(set(xnb.__all__)) == len(xnb.__all__)


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
