"""The names the benchmark (bench/) imports, patches and calls still exist and
are still called the way it expects, so that a refactor which breaks them
fails here rather than in a benchmark run."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from dqsim import cli
from dqsim.cli import ExperimentSpec
from dqsim.sim import ObjectiveSpec, OracleSpec, RunConfig, ScheduleSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"

TINY = ExperimentSpec(
    kind="compare",
    compare_fixed_bits=4,
    seeds=(3, 5),
    run=RunConfig(
        objective=ObjectiveSpec(kind="quadratic-isotropic", d=4, lam=1.0),
        oracle=OracleSpec(kind="gaussian", sigma=0.5),
        schedule=ScheduleSpec(kind="dynamic", tau=4, alpha_source="closed_form"),
        W=2, T=8, eta=0.1,
    ),
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [0, 401])
def test_every_workload_spec_round_trips_through_the_config_text(workloads, n):
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        spec = workload.spec_for(workloads.SEED_STRIDE * n)
        assert cli.parse_config(cli.format_config(spec)) == spec


def test_every_span_target_exists():
    tracing = _load_tracing()
    targets = tracing.span_targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"


@pytest.mark.parametrize("calibration", ["none", "dynamic-to-fixed", "fixed-to-dynamic"])
def test_run_comparison_calls_module_run_once_per_arm_per_seed(monkeypatch, calibration):
    seen = []
    run = cli.run

    def counted(config, *args, **kwargs):
        seen.append((config.seed, config.schedule.kind))
        return run(config, *args, **kwargs)

    monkeypatch.setattr(cli, "run", counted)
    cli.run_comparison(dataclasses.replace(TINY, calibration=calibration))
    assert sorted(seen) == [(s, k) for s in (3, 4, 5) for k in ("dynamic", "fixed")]


def test_traced_comparison_records_spans_and_restores_names():
    tracing = _load_tracing()
    before = [getattr(owner, attr) for owner, attr, _, _ in tracing.span_targets()]
    tracer = tracing.Tracer()
    with tracing.patched(tracing.traced(tracer)):
        cli.run_comparison(TINY)
    assert tracer.calls["cli.run_comparison"] == 1
    assert tracer.calls["sim.run"] == 6
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.span_targets()] == before
