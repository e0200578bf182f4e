"""Benchmark of dqsim's round engine, codec and theory report.

Run from the root of a source checkout:

    python3 bench/run.py --workload compare-logistic-d50 --seed 0 --seconds 10 --trace 0

One workload runs closed-loop in this process, one call after another, for
--seconds seconds (--seconds 0 makes one timed call).  Every output is
checked, and the last line printed is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  A traced run spends the first half of
its time untraced and the second half traced, and reports the difference in
worker_rounds_per_s as the tracing overhead.  Details of each run go to
bench-out/<workload>.trace<0|1>.json.
"""

import os

# One BLAS thread per process: with the default of one per core, OpenBLAS
# spreads the dense products over both cores of a small box and call times
# spread by tens of percent from run to run.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 3
OUT_DIR = Path("bench-out")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Recorder:
    """Stands in for `sim.run` (under both names it is called by) and
    `sim.theory_report_for` to keep what they return and to time the calls
    into the round engine."""

    def __init__(self, cli, sim):
        self.traces = []
        self.reports = []  # (trace, report)
        self.run_s = 0.0
        run, report_for = sim.run, sim.theory_report_for

        def timed_run(*args, **kwargs):
            start = time.perf_counter()
            trace = run(*args, **kwargs)
            self.run_s += time.perf_counter() - start
            self.traces.append(trace)
            return trace

        def kept_report(trace):
            report = report_for(trace)
            self.reports.append((trace, report))
            return report

        self.replacements = [
            (cli, "run", timed_run),
            (sim, "run", timed_run),
            (sim, "theory_report_for", kept_report),
        ]


class Phase:
    """The timed calls of one phase of a run."""

    def __init__(self):
        self.call_s = []
        self.rates = []  # per call: worker-rounds / seconds inside sim.run
        self.worker_rounds = 0
        self.rounds = 0
        self.failed = 0

    @property
    def worker_rounds_per_s(self) -> float:
        return statistics.median(self.rates)


def _closed_loop(workload, seeds, recorder, seconds) -> Phase:
    """Call after call until `seconds` have passed, at least one call."""
    phase = Phase()
    start = time.perf_counter()
    while not phase.call_s or time.perf_counter() - start < seconds:
        n_traces, run_s = len(recorder.traces), recorder.run_s
        call_start = time.perf_counter()
        phase.failed += not workload.call(next(seeds))
        phase.call_s.append(time.perf_counter() - call_start)
        traces = recorder.traces[n_traces:]
        worker_rounds = sum(trace.config.W * trace.t.size for trace in traces)
        if worker_rounds:
            phase.rates.append(worker_rounds / (recorder.run_s - run_s))
        phase.worker_rounds += worker_rounds
        phase.rounds += sum(trace.t.size for trace in traces)
    return phase


def _per_layer(tracer, phase: Phase, setup) -> dict:
    """{name: (value, unit)}: per worker-round self times in us, per call
    times in ms, per round counts, and the set-up phases in s."""
    us = 1e6 / phase.worker_rounds
    ms = 1e3 / len(phase.call_s)
    self_s, per_round = tracer.self_s, 1.0 / phase.rounds
    return {
        "streams.worker_stream.us": (self_s["streams.worker_stream"] * us, "us"),
        "objective.sample.us": (self_s["objective.sample"] * us, "us"),
        "objective.gradient.us": (self_s["objective.gradient"] * us, "us"),
        "objective.loss.us": (self_s["objective.loss"] * us, "us"),
        "objective.gradient.calls_per_round": (
            tracer.calls["objective.gradient"] * per_round, "count"),
        "quant.quantize.us": (self_s["quant.quantize"] * us, "us"),
        "quant.encode.us": (self_s["quant.encode"] * us, "us"),
        "quant.decode.us": (self_s["quant.decode"] * us, "us"),
        "quant.frame_bytes_per_round": (tracer.counts["quant.encode"] * per_round, "count"),
        "schedule.update.us": (self_s["schedule.update"] * us, "us"),
        "sim.run.self_us_per_worker_round": (self_s["sim.run"] * us, "us"),
        "sim.theory_report_for.ms": (tracer.total_s["sim.theory_report_for"] * ms, "ms"),
        "theory.self_ms": (tracer.layer_self_s("theory") * ms, "ms"),
        "cli.run_comparison.self_ms": (self_s["cli.run_comparison"] * ms, "ms"),
        "objective.build_s": (statistics.median(b for b, _ in setup), "s"),
        "objective.optimal_value_s": (statistics.median(o for _, o in setup), "s"),
    }


def _child_import_s() -> float:
    """Seconds to import dqsim in a fresh interpreter, timed inside it."""
    code = (
        "import time; start = time.perf_counter(); import sys; sys.path.insert(0, 'src'); "
        "import dqsim.cli; print(time.perf_counter() - start)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout)


def _bit_mix(traces) -> dict:
    """Share of all frames sent at each bit width."""
    frames = {}
    for trace in traces:
        for b in trace.bits.tolist():
            frames[b] = frames.get(b, 0) + trace.config.W
    total = sum(frames.values())
    return {str(b): n / total for b, n in sorted(frames.items())}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not Path("src/dqsim/__init__.py").is_file():
        print("error: run from the root of a dqsim source checkout (src/dqsim not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    from dqsim import cli, sim

    import_s = time.perf_counter() - _PROCESS_START

    import checks
    import tracing
    from workloads import SEED_STRIDE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # set-up is repeated and its median reported: the import in this process
    # and in fresh interpreters, and the objective build in this process
    imports = [import_s] + [_child_import_s() for _ in range(SETUP_REPEATS - 1)]
    setup = [workload.set_up() for _ in range(SETUP_REPEATS)]

    seeds = iter(range(SEED_STRIDE * args.seed, SEED_STRIDE * (args.seed + 1)))
    recorder = Recorder(cli, sim)
    tracer = tracing.Tracer()
    with tracing.patched(recorder.replacements):
        workload.call(next(seeds))  # untimed warm-up; its seed is replayed below
        warm_traces = list(recorder.traces)
        if args.trace:
            plain = _closed_loop(workload, seeds, recorder, args.seconds / 2)
            with tracing.patched(tracing.traced(tracer)):
                phase = _closed_loop(workload, seeds, recorder, args.seconds / 2)
            phases = [plain, phase]
        else:
            phase = _closed_loop(workload, seeds, recorder, args.seconds)
            phases = [phase]

    failures = []
    for trace in recorder.traces:
        failures += checks.bit_accounting(trace)
    for trace in warm_traces:
        failures += checks.replays(trace)
    failures += workload.check(recorder.traces, recorder.reports)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)

    setup_s = statistics.median(imports) + statistics.median(b + o for b, o in setup)
    if args.trace:
        metrics = _per_layer(tracer, phase, setup)
        overhead = plain.worker_rounds_per_s / phase.worker_rounds_per_s - 1.0
        print(f"tracing overhead: {100 * overhead:.1f}% of worker_rounds_per_s "
              f"({plain.worker_rounds_per_s:.6g} untraced, "
              f"{phase.worker_rounds_per_s:.6g} traced)")
    else:
        metrics = {
            "worker_rounds_per_s": (phase.worker_rounds_per_s, "1/s"),
            "call_s": (statistics.median(phase.call_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "setup_s": (setup_s, "s"),
        }
    result = {
        "correct": not failures,
        "attempted": sum(len(p.call_s) for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "check_failures": failures,
        "import_s": imports,
        "setup": [{"build_s": b, "optimal_value_s": o} for b, o in setup],
        "call_s": phase.call_s,
        "bit_mix": _bit_mix(recorder.traces),
    }
    if args.trace:
        detail["tracing_overhead"] = overhead
        detail["untraced_worker_rounds_per_s"] = plain.worker_rounds_per_s
        detail["traced_worker_rounds_per_s"] = phase.worker_rounds_per_s
        detail["spans"] = tracer.to_dict()
    (OUT_DIR / f"{workload.name}.trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
