"""The repository benchmark (``benchmarks/e2e``) guards the test suite.

``run.py --selftest`` proves the harness's output and metric-name checks
fire (about 3 s); ``run.py --smoke`` runs all four workloads at 1k vertices
with the oracle and golden-digest checks on every rep (about 13 s, so it is
slow-marked).  Both run as the benchmark itself does: a fresh interpreter
on the checked-out sources.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "run.py"


def run_benchmark(flag: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN_PY), flag],
                          capture_output=True, text=True, timeout=timeout)


def test_selftest_passes():
    done = run_benchmark("--selftest", timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "BROKEN" not in done.stdout, done.stdout


@pytest.mark.slow
def test_smoke_run_passes_every_check():
    done = run_benchmark("--smoke", timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "FAILED" not in done.stdout, done.stdout
