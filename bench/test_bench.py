"""Smoke tests for the benchmark itself; no timing bound anywhere.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import timing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,failed", [("sweep-paper", 0), ("uniform-flood", 0),
                                             ("secure-churn", workloads.PROMOTED_JOINS)])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_passes_every_check(workload, failed, trace):
    proc = bench("--workload", workload, "--seed", "3", "--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    passes = 2 if trace == "1" else 1
    assert result["failed"] == passes * failed
    expected = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in expected["per_layer" if trace == "1" else "end_to_end"]}
    assert set(result["metrics"]) == names


def test_same_seed_writes_same_artifacts():
    digests = set()
    for _ in range(2):
        proc = bench("--workload", "uniform-flood", "--seed", "5", "--smoke")
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.splitlines()[-2].split("sha256=")[1])
    assert len(digests) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "secure-churn", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("slowdown", [1.0, 2.0])
def test_pass_scales_timed_work_by_the_probe(monkeypatch, slowdown):
    ref = timing.REF_PROBE_S
    monkeypatch.setattr(timing, "probe", lambda: (ref * slowdown, ref * slowdown))
    monkeypatch.setattr(timing, "PROBE_EVERY_S", 0.0)
    p = timing.Pass(timing.Tracer(), 0, traced=False)
    p.start()
    with p.timed("outer"):
        with p.op("a"):
            spin(0.02)
        with p.untimed():
            spin(0.02)
        with p.op("b"):
            spin(0.01)
    p.finish()
    assert p.attempted == 2
    assert 0.03 <= p.raw_wall < 0.05  # the untimed 0.02 s is left out
    assert p.wall == pytest.approx(p.raw_wall / slowdown)
    assert p.cpu == pytest.approx(p.raw_cpu / slowdown)
    assert len(p.op_ms) == 2 and p.op_ms[0] >= 20 / slowdown
    assert sum(p.op_ms) / 1e3 == pytest.approx(p.wall, rel=0.05)


def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
