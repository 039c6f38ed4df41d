"""Smoke test of the benchmark: a tiny pass of each workload, untraced and
traced, passes the benchmark's own checks and prints every declared metric."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["interval", "coloring", "verify"])
def test_smoke_pass(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--trace", str(trace), "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_speed_sampler_takes_its_samples_out_of_the_job():
    sampler = run.SpeedSampler()
    with sampler.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        t1 = time.perf_counter()
    assert len(sampler.took) >= 4  # on entry, on exit and on the timer in between
    assert 0 < sampler.own_seconds(t0, t1) < t1 - t0
    assert sampler.scale(t0, t1) > 0


def test_smoke_is_deterministic_per_seed():
    from workloads import make_workload

    a, b = make_workload("coloring", 5, smoke=True), make_workload("coloring", 5, smoke=True)
    assert a.specs == b.specs and a.jobs == b.jobs
    assert make_workload("coloring", 6, smoke=True).specs != a.specs


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "interval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
