"""Tests of the benchmark itself: every check rejects a wrong output, and a
minimal run of each workload passes.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
from dqsim import cli, sim  # noqa: E402
from dqsim.sim import (  # noqa: E402
    ObjectiveSpec,
    OracleSpec,
    RunConfig,
    ScheduleSpec,
    build_objective,
    run,
    theory_report_for,
)
from workloads import WORKLOADS  # noqa: E402

ISO = RunConfig(
    objective=ObjectiveSpec(kind="quadratic-isotropic", d=6, lam=1.0),
    oracle=OracleSpec(kind="gaussian", sigma=0.5),
    schedule=ScheduleSpec(kind="dynamic", tau=4, alpha_source="closed_form"),
    W=3, T=12, eta=0.1,
)
LOGISTIC = RunConfig(
    objective=ObjectiveSpec(kind="logistic", d=5, n=64, data_seed=3),
    oracle=OracleSpec(kind="minibatch", batch_size=4, calibration_draws=2),
    schedule=ScheduleSpec(kind="fixed", bits=6),
    W=4, T=15, eta=0.2, x0="zeros",
)


def _pairs(seeds):
    """Fixed-6 and dynamic arms of the compare workload, kept by the
    benchmark's own recorder."""
    recorder = bench_run.Recorder(cli, sim)
    with tracing.patched(recorder.replacements):
        for seed in seeds:
            assert WORKLOADS["compare-logistic-d50"].call(seed)
    return recorder.traces[0::2], recorder.traces[1::2]


def test_bit_accounting_rejects_cum_bits_off_by_one_frame():
    trace = run(ISO)
    assert checks.bit_accounting(trace) == []
    frame = int(trace.x_final.size * trace.bits[-1] + ISO.b_pre)
    for index in (-1, 5):
        cum = trace.cum_bits.copy()
        cum[index] += frame
        assert checks.bit_accounting(dataclasses.replace(trace, cum_bits=cum))


def test_replay_rejects_a_changed_transcript():
    trace = run(ISO)
    assert checks.replays(trace) == []
    loss = trace.loss.copy()
    loss[4] = np.nextafter(loss[4], np.inf)
    assert checks.replays(dataclasses.replace(trace, loss=loss))


def test_paired_compare_rejects_more_bits_or_worse_loss():
    fixed, dynamic = _pairs([0, 1, 2])
    assert [t.config.schedule.kind for t in fixed + dynamic] == ["fixed"] * 3 + ["dynamic"] * 3
    assert checks.paired_compare(fixed, dynamic) == []
    # arms swapped: the "dynamic" arm now spends more bits than its partner
    assert checks.paired_compare(dynamic, fixed)
    worse = [dataclasses.replace(g, final_loss=f.final_loss + 1e-3 * (i + 1))
             for i, (f, g) in enumerate(zip(fixed, dynamic))]
    assert checks.paired_compare(fixed, worse)
    assert checks.paired_compare(fixed[:1], dynamic[:1])


def test_logistic_final_loss_rejects_a_wrong_loss():
    trace = run(LOGISTIC)
    obj = build_objective(LOGISTIC.objective)
    assert checks.logistic_final_loss(trace, obj.X, obj.y, obj.ridge) == []
    off = dataclasses.replace(trace, final_loss=trace.final_loss * (1 + 1e-8))
    assert checks.logistic_final_loss(off, obj.X, obj.y, obj.ridge)
    loss = trace.loss.copy()
    loss[0] = trace.final_loss
    rising = dataclasses.replace(trace, loss=loss)
    assert checks.logistic_final_loss(rising, obj.X, obj.y, obj.ridge)


def test_isotropic_checks_reject_a_loose_bound_or_a_high_gap():
    traces = [run(ISO.with_seed(seed)) for seed in range(4)]
    reports = [theory_report_for(t) for t in traces]
    assert all(checks.isotropic_tightness(0, r) == [] for r in reports)
    loose = dataclasses.replace(
        reports[0], theorem1_bound_series=reports[0].theorem1_bound_series * (1 + 1e-8)
    )
    assert checks.isotropic_tightness(0, loose)
    gaps = [t.final_gap for t in traces]
    bounds = [r.theorem1_bound_series[-1] for r in reports]
    assert checks.gap_within_bound(gaps, bounds) == []
    assert checks.gap_within_bound([b * 1.5 for b in bounds], bounds)


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_minimal_run_passes(workload, trace):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "compare-logistic-d50", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
