"""The benchmark's three workloads and the checks each one's outputs must pass.

A compare workload's call is `cli.run_comparison` on one seed pair; a run
workload's call is one `sim.run` plus `sim.theory_report_for` on its trace.
Call k of a benchmark run with --seed n uses run seed 10000 * n + k; the
objectives are fixed.  Artifacts are not written: rewriting a file costs tens
of milliseconds of disk flush on ext4, which would swamp the codec.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from dqsim import cli, sim
from dqsim.cli import ExperimentSpec
from dqsim.sim import ObjectiveSpec, OracleSpec, RunConfig, ScheduleSpec, build_objective

import checks

SEED_STRIDE = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    spec: ExperimentSpec  # run seed and seed range are set per call

    def spec_for(self, seed: int) -> ExperimentSpec:
        return dataclasses.replace(
            self.spec, seeds=(seed, seed), run=self.spec.run.with_seed(seed)
        )

    def call(self, seed: int) -> bool:
        """One workload call; False if a run diverged.  Names are looked up
        on their modules at call time, so the benchmark's recorders and spans
        see them."""
        spec = self.spec_for(seed)
        try:
            if spec.kind == "compare":
                cli.run_comparison(spec)
            else:
                sim.theory_report_for(sim.run(spec.run))
        except sim.DivergenceError:
            return False
        return True

    def set_up(self) -> tuple[float, float]:
        """Build the objective afresh and fill its lazy optimum cache.

        Returns (build seconds, optimal_value seconds).  The objective stays
        in build_objective's cache for the calls that follow.
        """
        build_objective.cache_clear()
        start = time.perf_counter()
        obj = build_objective(self.spec.run.objective)
        built = time.perf_counter()
        obj.optimal_value()
        return built - start, time.perf_counter() - built

    def check(self, traces: list, reports: list) -> list[str]:
        """Workload-specific checks on every trace and theory report made."""
        failures = []
        if self.spec.kind == "compare":
            fixed = [t for t in traces if t.config.schedule.kind == "fixed"]
            dynamic = [t for t in traces if t.config.schedule.kind == "dynamic"]
            if [t.config.seed for t in fixed] != [t.config.seed for t in dynamic]:
                return ["fixed and dynamic arms are not paired seed by seed"]
            return checks.paired_compare(fixed, dynamic)
        obj = build_objective(self.spec.run.objective)
        if self.spec.run.objective.kind == "logistic":
            for trace in traces:
                failures += checks.logistic_final_loss(trace, obj.X, obj.y, obj.ridge)
        else:
            for trace, report in reports:
                failures += checks.isotropic_tightness(trace.config.seed, report)
            if failures:
                return failures
            failures += checks.gap_within_bound(
                [trace.final_gap for trace, _ in reports],
                [report.theorem1_bound_series[-1] for _, report in reports],
            )
        return failures


def _logistic(d: int, n: int) -> ObjectiveSpec:
    return ObjectiveSpec(kind="logistic", d=d, n=n, ridge=0.1, label_noise=0.2, data_seed=11)


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance criterion 6 with one seed pair per call: thousands of
        # 50-coordinate frames, so per-frame Python overhead dominates.
        Workload(
            "compare-logistic-d50",
            ExperimentSpec(
                kind="compare",
                compare_fixed_bits=6,
                calibration="dynamic-to-fixed",
                run=RunConfig(
                    objective=_logistic(50, 2000),
                    oracle=OracleSpec(kind="minibatch", batch_size=16, calibration_draws=16),
                    schedule=ScheduleSpec(
                        kind="dynamic", tau=25, b0=6, alpha_source="closed_form",
                        b_min=2, b_max=12,
                    ),
                    W=8, T=300, eta=0.2, x0="zeros",
                ),
            ),
        ),
        # Few, huge frames: dense full-gradient and loss passes and the codec
        # on 10^4-coordinate frames.
        Workload(
            "run-logistic-d10k",
            ExperimentSpec(
                kind="single",
                run=RunConfig(
                    objective=_logistic(10_000, 2048),
                    oracle=OracleSpec(kind="minibatch", batch_size=16, calibration_draws=4),
                    schedule=ScheduleSpec(
                        kind="dynamic", tau=10, b0=6, alpha_source="closed_form",
                        b_min=2, b_max=12,
                    ),
                    W=32, T=30, eta=0.2, x0="zeros",
                ),
            ),
        ),
        # The theory report's eigh and the dense H @ x dominate; codec and
        # streams are about 2%.
        Workload(
            "run-iso-quad-d3000",
            ExperimentSpec(
                kind="single",
                run=RunConfig(
                    objective=ObjectiveSpec(kind="quadratic-isotropic", d=3000, lam=1.0),
                    oracle=OracleSpec(kind="gaussian", sigma=0.5),
                    schedule=ScheduleSpec(kind="dynamic", tau=10, alpha_source="closed_form"),
                    W=4, T=50, eta=0.1,
                ),
            ),
        ),
    )
}
