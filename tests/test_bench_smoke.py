"""Smoke run of every benchmark workload, so the harness cannot rot.

Each workload runs once at smoke size with all of its output checks
(networkx flood-relay counts, trace.csv row counts, adversary containment
and the rest).  There is no timing bound: wall-clock gates are flaky on
shared hosts.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep-paper", "uniform-flood", "secure-churn"])
def test_benchmark_workload_smoke_run_is_correct(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stdout[-2000:]
    assert result["failed"] == 0, run.stdout[-2000:]
