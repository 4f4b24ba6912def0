"""Smoke run of every benchmark workload, so the harness cannot rot.

Each workload runs once at smoke size with all of its output checks
(networkx flood-relay counts, trace.csv row counts, adversary containment
and the rest), and its artifacts must hash to the digest pinned here, so a
speed-up that changes any output byte fails.  There is no timing bound:
wall-clock gates are flaky on shared hosts.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# sha256 over every artifact of a `--seed 3 --smoke` pass, as bench/run.py
# prints it before its JSON line (taken with Python 3.11.7)
SMOKE_DIGESTS = {
    "sweep-paper": "13233fd358336d08c209b7da82e4f7d82444a860c0ab648a73119f96e2a4fd03",
    "uniform-flood": "09b3dc047fab2955ea5df3a1a20920d03a52e29daf64ee48eca261bbaa528021",
    "secure-churn": "018203d736559d3946bd9d6488325cc4a8be3396da4a8393d64b2a781ecf35a5",
}


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
    digests = re.findall(r"artifacts sha256=([0-9a-f]{64})$", run.stdout, re.MULTILINE)
    assert digests == [SMOKE_DIGESTS[workload]], run.stdout[-2000:]
