"""The benchmark's own self-tests, run as tier 1 runs them, so that a change to
graphcube's API that breaks perfbench's gate or its per-layer wrappers fails
here and not first in a benchmark run."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
