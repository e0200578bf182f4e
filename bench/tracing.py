"""Spans around the calls into each dqsim layer, recorded from outside.

Every public function the round engine, the codec, the oracles, the schedule
and the theory report call is replaced, for the length of a `patched` block,
by a wrapper that times it.  Module-level functions are replaced in the
module that calls them, under the name that module bound at import time
(`dqsim.sim.encode`, `dqsim.cli.run`), because `sim` and `cli` import those
names directly and replacing them in `dqsim.quant` would not be seen.  The
benchmark itself calls `dqsim.sim.run` and `dqsim.cli.run_comparison`.
Methods are replaced on their class.

Spans nest: a span's self time is its duration minus the time of the spans
it contains, so the self time of `objective.sample` excludes the
`objective.gradient` call inside it.  A span called directly from a span of
the same name (`LogisticObjective.gradient` calling `gradient_on`) is
merged into its caller.  Spans are aggregated per name as they close, not
stored one by one: a compare call opens about 25,000 of them.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    """Per-name totals of self time, inclusive time, calls and counts."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, seconds covered by child spans]

    def wrap(self, name: str, fn, count=None):
        """Wrapper that records fn's calls as spans called `name`.

        count, if given, maps fn's result to a number added to counts[name].
        """
        stack = self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                self.counts[name] += count(result)
            return result

        return spanned

    def layer_self_s(self, layer: str) -> float:
        """Self time summed over every span of one layer (`cli`, `theory`)."""
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def to_dict(self) -> dict:
        return {
            name: {
                "self_s": self.self_s[name],
                "total_s": self.total_s[name],
                "calls": self.calls[name],
                "count": self.counts.get(name, 0),
            }
            for name in sorted(self.total_s)
        }


def span_targets():
    """(owner, attribute, span name, count) for every traced call site."""
    from dqsim import cli, objective, schedule, sim, theory

    return [
        (cli, "run_comparison", "cli.run_comparison", None),
        (cli, "run", "sim.run", None),
        (sim, "run", "sim.run", None),
        (sim, "theory_report_for", "sim.theory_report_for", None),
        (sim, "worker_stream", "streams.worker_stream", None),
        (objective.GradientOracle, "sample", "objective.sample", None),
        (objective.GradientOracle, "calibrate", "objective.calibrate", None),
        (objective.LogisticObjective, "gradient", "objective.gradient", None),
        (objective.LogisticObjective, "gradient_on", "objective.gradient", None),
        (objective.QuadraticObjective, "gradient", "objective.gradient", None),
        (objective.LogisticObjective, "loss", "objective.loss", None),
        (objective.LogisticObjective, "loss_on", "objective.loss", None),
        (objective.QuadraticObjective, "loss", "objective.loss", None),
        (sim, "quantize", "quant.quantize", None),
        (sim, "sign_quantize", "quant.quantize", None),
        (sim, "encode", "quant.encode", len),
        (sim, "decode", "quant.decode", None),
        (schedule.DynamicSchedule, "update", "schedule.update", None),
        (schedule.FixedSchedule, "update", "schedule.update", None),
        (schedule.SignSchedule, "update", "schedule.update", None),
        (theory, "theorem1_bound", "theory.theorem1_bound", None),
        (theory, "theorem3_exact_series", "theory.theorem3_exact_series", None),
    ]


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the block, then restore.

    Class attributes are read from the class's own __dict__ so that a method
    inherited from a base class is restored by deleting the override.
    """
    saved = []
    try:
        for owner, attr, value in replacements:
            own = vars(owner)
            saved.append((owner, attr, own[attr] if attr in own else None, attr in own))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old, had in reversed(saved):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def traced(tracer: Tracer):
    """Replacements that wrap whatever stands at each span target now."""
    return [
        (owner, attr, tracer.wrap(name, getattr(owner, attr), count))
        for owner, attr, name, count in span_targets()
    ]
