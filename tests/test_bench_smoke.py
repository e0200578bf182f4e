"""The benchmark path end to end: bench/run.py runs the compare workload to
its closing JSON line, and each run workload makes one call, so that a change
which breaks a benchmark run fails here first."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from dqsim.sim import build_objective

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [0, 1])
def test_bench_run_of_the_compare_workload_passes(tmp_path, trace):
    # bench/run.py runs from a checkout's root and writes bench-out/ there;
    # a src link in a temporary directory keeps that output out of the repo
    (tmp_path / "src").symlink_to(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "compare-logistic-d50",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr


@pytest.mark.parametrize("name", ["run-iso-quad-d3000", "run-logistic-d10k"])
def test_one_call_of_each_run_workload_passes(workloads, name):
    try:
        assert workloads.WORKLOADS[name].call(0)
    finally:
        build_objective.cache_clear()
