"""Experiment runner: config parsing, orchestration, and artifact emission.

Configs are flat sectioned text ("[section]" headers, "key = value" lines,
full-line # comments) with typed scalars and bracketed arrays.  Parsing
validates every line and reports all problems at once, with line numbers.
Every output directory receives the exact config text, the seeds, and a
tool-version stamp, so any artifact can be replayed bit for bit.

Verbs: run (single trace), compare (paired fixed-vs-dynamic arms calibrated
to one quantization budget, over its --seeds range; it takes no --seed),
sweep (grid over widths or schedule kinds), and verify (the analytical check
suites).  A summary.csv row holds a label's mean final loss, gap and bits;
compare writes one per fixed width and one for the dynamic arm.  Exit codes:
0 success, 1 usage/config error, 2 divergence, 3 verification failure.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import dataclasses
import json
import math
import platform
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .schedule import (
    alpha_closed_form,
    budget_satisfaction,
    fixed_bits_for_budget,
    quantization_budget,
)
from .sim import (
    DivergenceError,
    ObjectiveSpec,
    OracleSpec,
    RunConfig,
    RunTrace,
    ScheduleSpec,
    SpecError,
    build_objective,
    check_choice,
    check_entries,
    check_int,
    check_int_range,
    config_key,
    run,
    theory_report_for,
    write_trace,
)
from .streams import STREAM_FORMAT
from .verify import VERIFIERS

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "parse_config",
    "format_config",
    "emit_summary",
    "run_experiment",
    "run_comparison",
    "ComparisonSummary",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_VERIFY_FAILED = 3


class ConfigError(ValueError):
    """Carries every problem found in a config, not just the first."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: what to execute plus the full run configuration."""

    kind: str = config_key("single", check_choice("single", "compare", "sweep", "verify"))
    check: str = config_key("lemma1", check_choice(*sorted(VERIFIERS)))  # verify suite name
    sweep: str = config_key("bits", check_choice("bits", "schedule"))
    sweep_bits: tuple = config_key((2, 3, 4, 5, 6, 7, 8), check_entries(check_int(2, 32)))
    sweep_schedules: tuple = config_key(
        ("sign", "ternary", "fixed", "dynamic"),
        check_entries(check_choice("sign", "ternary", "fixed", "dynamic")),
    )
    compare_fixed_bits: int = config_key(6, check_int(2, 32))
    calibration: str = config_key(
        "dynamic-to-fixed", check_choice("none", "dynamic-to-fixed", "fixed-to-dynamic")
    )
    formats: tuple = config_key(("csv", "json"), check_entries(check_choice("csv", "json")))
    # inclusive range for multi-seed verbs
    seeds: tuple = config_key((0, 0), check_int_range(0, 2**31 - 1))
    run: RunConfig = field(default_factory=RunConfig)


# ---------------------------------------------------------------------------
# config text format
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[([a-z][a-z0-9_-]*)\]$")
_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def _parse_scalar(token: str):
    token = token.strip()
    if _INT_RE.match(token):
        try:
            return int(token)
        except ValueError:  # past Python's digit limit: text, which no check takes
            return token
    if token in ("true", "false"):
        return token == "true"
    try:
        return float(token)
    except ValueError:
        return token


def _parse_value(raw: str):
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part) for part in inner.split(",")]
    return _parse_scalar(raw)


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_value(v) for v in value) + "]"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _section_specs(spec: ExperimentSpec) -> dict:
    """Each config section's spec within an experiment, in the text's order."""
    run = spec.run
    return {
        "experiment": spec,
        "objective": run.objective,
        "oracle": run.oracle,
        "run": run,
        "schedule": run.schedule,
    }


# each section's keys: its spec's fields that declare a check, in their order
_KEYS = {
    section: {f.name: f for f in dataclasses.fields(spec) if "check" in f.metadata}
    for section, spec in _section_specs(ExperimentSpec()).items()
}


def _key_check(section: str, key: str):
    return _KEYS[section][key].metadata["check"]


def _as_field_type(f: dataclasses.Field, value):
    """A parsed value in its field's declared type (annotations are strings
    here, under `from __future__ import annotations`)."""
    if f.type in ("float", "float | None"):
        return float(value)
    if f.type == "tuple":
        return tuple(value)
    return value


# A dense quadratic (kind = quadratic) holds d x d matrices: building one
# with random_pd and finding its eigenbasis peaks at about 42 * d**2 bytes
# of RSS (measured: 244 MiB at d = 2000, 442 MiB at d = 3000, 1073 MiB at
# d = 5000), so d is capped where that reaches about 1 GiB.  Isotropic
# quadratics are O(d) and keep the general d <= 10**6.
DENSE_QUADRATIC_MAX_D = 5000

# A logistic objective holds its dense n x d design and, while finding its
# smoothness constant, the Gram matrix of the design's smaller side: building
# one peaks at about 8 * (n*d + min(n, d)**2) bytes over the imports, 9 to 10
# bytes per entry when one side is 5 or more times the other and 17.5 at a
# square design (measured: 120 MiB at 500 x 10^4, 274 MiB at 2048 x 10^4,
# 227 MiB at 3000 x 3000, with 77 MiB of imports), so n*d is capped where the
# square case reaches about 1 GiB.
LOGISTIC_MAX_ND = 6 * 10**7


def parse_config(text: str) -> ExperimentSpec:
    """Parse and validate config text; raises ConfigError listing every
    problem (with line numbers) rather than stopping at the first."""
    errors: list[str] = []
    values: dict[tuple, object] = {}
    first_line: dict[tuple, int] = {}
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            section = m.group(1)
            if section not in _KEYS:
                errors.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        m = _KEY_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside any known section")
            continue
        key, raw_value = m.group(1), m.group(2)
        if key not in _KEYS[section]:
            errors.append(f"line {lineno}: unknown key {key!r} in [{section}]")
            continue
        slot = (section, key)
        if slot in first_line:
            errors.append(
                f"line {lineno}: duplicate key {key!r} in [{section}] "
                f"(first defined at line {first_line[slot]})"
            )
            continue
        first_line[slot] = lineno
        value = _parse_value(raw_value)
        err = _key_check(section, key)(value)
        if err:
            errors.append(f"line {lineno}: [{section}] {key}: {err}")
            continue
        values[slot] = _as_field_type(_KEYS[section][key], value)

    def section_kwargs(name: str) -> dict:
        return {key: v for (sec, key), v in values.items() if sec == name}

    def later_line(*slots) -> int:
        """A rule across keys is reported at the later of their lines."""
        return max(first_line.get(slot, 0) for slot in slots)

    specs = {}
    nested = {"objective": ObjectiveSpec, "oracle": OracleSpec, "schedule": ScheduleSpec}
    for name, cls in nested.items():
        try:
            specs[name] = cls(**section_kwargs(name))
        except SpecError as exc:
            line = later_line(*((name, key) for key in exc.keys))
            errors.append(f"line {line}: [{name}] {exc}")

    kind = values.get(("objective", "kind"), ObjectiveSpec.kind)
    d = values.get(("objective", "d"), ObjectiveSpec.d)
    if kind == "quadratic" and d > DENSE_QUADRATIC_MAX_D:
        errors.append(
            f"line {first_line[('objective', 'd')]}: [objective] d: must be at most "
            f"{DENSE_QUADRATIC_MAX_D} with kind = quadratic, got {d}: a dense quadratic "
            f"needs about 42 * d**2 bytes, 1 GiB at d = {DENSE_QUADRATIC_MAX_D}"
        )
    n = values.get(("objective", "n"), ObjectiveSpec.n)
    if kind == "logistic" and n * d > LOGISTIC_MAX_ND:
        line = later_line(("objective", "n"), ("objective", "d"))
        errors.append(
            f"line {line}: [objective] n * d: must be at most {LOGISTIC_MAX_ND} with "
            f"kind = logistic, got {n} * {d} = {n * d}: the dataset and its Gram matrix "
            f"need up to about 17.5 * n * d bytes, 1 GiB at the limit"
        )

    oracle = values.get(("oracle", "kind"), OracleSpec.kind)
    if oracle == "minibatch" and kind != "logistic":
        line = later_line(("objective", "kind"), ("oracle", "kind"))
        errors.append(
            f"line {line}: [oracle] kind: minibatch needs a dataset, so kind = logistic "
            f"in [objective], got kind = {kind}"
        )
    W = values.get(("run", "W"), RunConfig.W)
    shard_mode = values.get(("oracle", "shard_mode"), OracleSpec.shard_mode)
    if oracle == "minibatch" and kind == "logistic" and shard_mode == "split" and n % W:
        line = later_line(("objective", "n"), ("run", "W"), ("oracle", "shard_mode"))
        errors.append(
            f"line {line}: [oracle] shard_mode = split: W must divide the dataset size n, "
            f"got n = {n}, W = {W}; set shard_mode = replicate, or change n or W"
        )

    if errors:
        raise ConfigError(errors)
    config = RunConfig(**specs, **section_kwargs("run"))
    return ExperimentSpec(run=config, **section_kwargs("experiment"))


def format_config(spec: ExperimentSpec) -> str:
    """Canonical text for a spec; parse_config(format_config(s)) == s."""
    lines: list[str] = []
    for section, values in _section_specs(spec).items():
        lines.append(f"[{section}]")
        for key in _KEYS[section]:
            value = getattr(values, key)
            if value is not None:
                lines.append(f"{key} = {_fmt_value(value)}")
        lines.append("")
    return "\n".join(lines)


def defaults_table() -> str:
    """The one documented table of every config key and its default."""
    spec = ExperimentSpec()
    text = format_config(spec)
    return "# every key with its default value; omit any of them\n" + text


# ---------------------------------------------------------------------------
# experiments: labelled runs over seeds, and their summaries
# ---------------------------------------------------------------------------


def emit_summary(traces: list[RunTrace], labels: list[str] | None = None) -> str:
    """One CSV row per label: loss, gap, bits, and cost relative to an
    uncompressed 32-bit schedule of the same shape.  A label that repeats (a
    compare's arm over its seeds) gets one row of means over its traces, at
    its first appearance.  A trace is a RunTrace, or any record with its
    config, final_loss, final_gap and total_bits."""
    if not traces:
        raise ValueError("no traces to summarize")
    groups: dict[str, list] = {}
    for label, trace in zip(labels or [t.config.schedule.kind for t in traces], traces):
        groups.setdefault(label, []).append(trace)
    lines = ["schedule,final_loss,final_gap,cum_bits,bits_vs_32bit_ratio"]
    for label, group in groups.items():
        config = group[0].config
        reference = config.W * config.T * (32 * build_objective(config.objective).d + config.b_pre)
        gaps = [t.final_gap for t in group]
        gap = "" if None in gaps else f"{np.mean(gaps):.17g}"
        loss = np.mean([t.final_loss for t in group])
        bits = np.mean([t.total_bits for t in group], dtype=np.float64)
        lines.append(f"{label},{loss:.17g},{gap},{bits:.17g},{bits / reference:.17g}")
    return "\n".join(lines) + "\n"


# what a summary keeps of a finished run: no per-round column, no x_final
_Outcome = collections.namedtuple("_Outcome", "label config final_loss final_gap total_bits")


def _labelled_runs(spec: ExperimentSpec, seed: int):
    """The labelled runs an experiment makes at one seed, each yielded as it
    finishes: a single run, a sweep's entries, or a compare's fixed arm and
    then its dynamic arm.  dynamic-to-fixed calibration hands the fixed arm's
    realized quantization-noise budget to the dynamic arm; fixed-to-dynamic
    runs the dynamic arm first and gives the fixed arm the smallest width that
    meets its budget on the realized norm history; none runs both as set."""
    cfg = spec.run.with_seed(seed)

    def fixed(bits: int) -> RunConfig:
        return dataclasses.replace(cfg, schedule=ScheduleSpec(kind="fixed", bits=bits))

    def rescheduled(**changes) -> RunConfig:
        return dataclasses.replace(cfg, schedule=dataclasses.replace(cfg.schedule, **changes))

    if spec.kind == "single":
        yield cfg.schedule.kind, run(cfg)
        return
    if spec.kind == "sweep" and spec.sweep == "bits":
        for b in spec.sweep_bits:
            yield f"b{b}", run(fixed(b))
        return
    if spec.kind == "sweep":
        for kind in spec.sweep_schedules:
            bits = 2 if kind == "ternary" else cfg.schedule.bits
            yield kind, run(rescheduled(kind=kind, bits=bits))
        return
    obj = build_objective(cfg.objective)
    L, mu = obj.constants()
    alpha = alpha_closed_form(cfg.eta, L, mu)
    if spec.calibration == "fixed-to-dynamic":
        dyn = run(rescheduled(kind="dynamic"))
        eps_q_hat = quantization_budget(dyn.config.schedule, cfg.W, obj.d, cfg.eta, L)
        fixed_arm = run(fixed(fixed_bits_for_budget(dyn.gbar, alpha, eps_q_hat)))
    elif spec.calibration == "dynamic-to-fixed":
        fixed_arm = run(fixed(spec.compare_fixed_bits))
        budget = budget_satisfaction(fixed_arm.bits, fixed_arm.gbar, alpha)
        dyn = run(rescheduled(kind="dynamic", eps_q_hat=budget))
    else:
        fixed_arm, dyn = run(fixed(spec.compare_fixed_bits)), run(cfg)
    yield f"fixed-{fixed_arm.config.schedule.bits}", fixed_arm
    yield "dynamic", dyn


def _experiment(spec: ExperimentSpec, on_trace=None) -> list[_Outcome]:
    """The outcome of every run of a compare over its seed range, or of a run
    or sweep at [run] seed, in order.  on_trace(label, trace) sees each trace
    as it finishes; only its outcome is kept, so that no seed's traces
    outlive the next seed's runs."""
    first, last = spec.seeds if spec.kind == "compare" else (spec.run.seed,) * 2
    outcomes = []
    for seed in range(first, last + 1):
        for label, t in _labelled_runs(spec, seed):
            if on_trace is not None:
                on_trace(label, t)
            outcomes.append(_Outcome(label, t.config, t.final_loss, t.final_gap, t.total_bits))
    return outcomes


@dataclass
class ComparisonSummary:
    """Seed-paired fixed-vs-dynamic outcome at one quantization budget."""

    fixed_bits: list
    seeds: list
    fixed_loss: np.ndarray
    dynamic_loss: np.ndarray
    fixed_total_bits: np.ndarray
    dynamic_total_bits: np.ndarray

    @property
    def n(self) -> int:
        return len(self.seeds)

    def to_dict(self) -> dict:
        """Means per arm, the paired loss difference and its standard error,
        95% intervals on mean bits, and the dynamic arm's saving and wins."""
        diff = self.dynamic_loss - self.fixed_loss
        fixed, dynamic = self.fixed_total_bits, self.dynamic_total_bits

        def se(arr: np.ndarray) -> float:
            return float(arr.std(ddof=1) / math.sqrt(self.n)) if self.n > 1 else 0.0

        def ci95(arr: np.ndarray) -> list:
            return [float(arr.mean()) - 1.96 * se(arr), float(arr.mean()) + 1.96 * se(arr)]

        return {
            "n_seeds": self.n,
            "fixed_bits_per_round": self.fixed_bits,
            "loss_mean_fixed": float(self.fixed_loss.mean()),
            "loss_mean_dynamic": float(self.dynamic_loss.mean()),
            "loss_diff_mean": float(np.mean(diff)),
            "loss_diff_se": se(diff),
            "bits_mean_fixed": float(fixed.mean()),
            "bits_mean_dynamic": float(dynamic.mean()),
            "bits_ci95_fixed": ci95(fixed),
            "bits_ci95_dynamic": ci95(dynamic),
            "bits_saving": 1.0 - float(dynamic.mean() / fixed.mean()),
            "win_fraction": float(np.mean(dynamic <= fixed)),
        }


def _paired(outcomes: list[_Outcome]) -> ComparisonSummary:
    """A compare's outcomes, a fixed and then a dynamic arm per seed, paired."""
    fixed, dynamic = outcomes[0::2], outcomes[1::2]
    return ComparisonSummary(
        [o.config.schedule.bits for o in fixed], [o.config.seed for o in fixed],
        *(np.array([o.final_loss for o in arm]) for arm in (fixed, dynamic)),
        *(np.array([o.total_bits for o in arm], dtype=np.float64) for arm in (fixed, dynamic)),
    )


def run_comparison(spec: ExperimentSpec) -> ComparisonSummary:
    """Paired fixed-vs-dynamic runs over the spec's seed range (see _labelled_runs)."""
    return _paired(_experiment(spec))


# ---------------------------------------------------------------------------
# experiment execution and artifact layout
# ---------------------------------------------------------------------------


# OpenBLAS's report of the kernel it picked for this CPU, under the names the
# ILP64 OpenBLAS bundled with numpy 2 and numpy 1 wheels exports
_BLAS_KERNEL_SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_")


def _blas_record() -> dict:
    """numpy's BLAS, read offline: the build's name and version, and the
    kernel it runs on this CPU where the library exports it.  A field that
    cannot be read is None; nothing here raises."""
    record = {"name": None, "version": None, "kernel": None}
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["name"], record["version"] = build.get("name"), build.get("version")
    except Exception:
        pass
    # the wheels bundle the library next to the package; loading it by path
    # returns the copy numpy already loaded
    package = Path(np.__file__).parent
    libs = [*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(str(lib))
            for symbol in _BLAS_KERNEL_SYMBOLS:
                corename = getattr(dll, symbol, None)
                if corename is not None:
                    corename.restype = ctypes.c_char_p
                    record["kernel"] = corename().decode()
                    return record
        except Exception:
            pass
    return record


def _write_manifest(out: Path, spec: ExperimentSpec, config_text: str, command: str):
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.cfg").write_text(config_text)
    manifest = {
        "tool": "dqsim",
        "version": __version__,
        "command": command,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "kind": spec.kind,
        "seed": spec.run.seed,
        "seeds": list(spec.seeds),
        # provenance of the bit-identical replay claim: the draw layout and
        # the interpreter, numpy, BLAS and platform the run was made with
        "stream_format": STREAM_FORMAT,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_record(),
        "platform": platform.platform(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _emit_trace(out: Path, name: str, trace: RunTrace, formats) -> None:
    report = theory_report_for(trace)
    csv_path = out / f"{name}.csv" if "csv" in formats else None
    json_path = out / f"{name}.json" if "json" in formats else None
    write_trace(trace, csv_path, json_path, report)


def _do_experiment(spec: ExperimentSpec, out: Path) -> int:
    """A run, a compare or a sweep: the trace of a run, and of each sweep
    entry in its own directory, is written as it finishes."""

    def write(label: str, trace: RunTrace) -> None:
        entry = out / label if spec.kind == "sweep" else out
        entry.mkdir(exist_ok=True)
        _emit_trace(entry, "trace", trace, spec.formats)

    outcomes = _experiment(spec, None if spec.kind == "compare" else write)
    (out / "summary.csv").write_text(emit_summary(outcomes, [o.label for o in outcomes]))
    if spec.kind == "single":
        print(f"run complete: final loss {outcomes[0].final_loss:.6g}, "
              f"{outcomes[0].total_bits} bits, artifacts in {out}")
    elif spec.kind == "sweep":
        print(f"sweep complete: {len(outcomes)} settings, artifacts in {out}")
    else:
        stats = _paired(outcomes).to_dict()
        (out / "compare.json").write_text(json.dumps(stats, indent=2) + "\n")
        print(f"compare complete over {stats['n_seeds']} seeds: "
              f"loss diff {stats['loss_diff_mean']:.3g} +/- {stats['loss_diff_se']:.3g}, "
              f"bits saving {100 * stats['bits_saving']:.1f}%, "
              f"win fraction {stats['win_fraction']:.2f}")
    return EXIT_OK


def _do_verify(spec: ExperimentSpec, out: Path | None) -> int:
    result = VERIFIERS[spec.check](seed=spec.run.seed)
    print(result.report())
    if out is not None:
        (out / "verify.txt").write_text(result.report() + "\n")
        (out / "verify.json").write_text(
            json.dumps(
                {"check": spec.check, "passed": result.passed, "lines": result.lines},
                indent=2,
            )
            + "\n"
        )
    return EXIT_OK if result.passed else EXIT_VERIFY_FAILED


def run_experiment(
    spec: ExperimentSpec,
    out_dir: str | Path,
    config_text: str | None = None,
    command: str = "",
) -> int:
    """Execute a spec and write its artifacts under out_dir."""
    out = Path(out_dir)
    _write_manifest(out, spec, config_text or format_config(spec), command)
    try:
        if spec.kind == "verify":
            return _do_verify(spec, out)
        return _do_experiment(spec, out)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        partial = exc.trace
        write_trace(partial, out / "diverged.csv", out / "diverged.json")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _flag_value(section: str, key: str, value, what: str):
    """A command-line value checked as its config key is."""
    err = _key_check(section, key)(value)
    if err:
        raise argparse.ArgumentTypeError(f"{what} {err}")
    return value


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    return _flag_value("run", "seed", seed, "seed")


def _parse_seed_range(text: str) -> tuple[int, int]:
    m = re.match(r"^(\d+)\.\.(\d+)$", text)
    if not m:
        raise argparse.ArgumentTypeError("seed range must look like 0..49")
    seeds = (int(m.group(1)), int(m.group(2)))
    return _flag_value("experiment", "seeds", seeds, "seed range")


def _parse_formats(text: str) -> tuple:
    formats = tuple(f.strip() for f in text.split(",") if f.strip())
    return _flag_value("experiment", "formats", formats, "format list")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqsim",
        description=__doc__.split("\n\n")[0],
        epilog="Run `dqsim defaults` for the full table of config keys.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(verb: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(verb, help=help)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", required=True, help="artifact directory")
        p.add_argument("--format", type=_parse_formats, help="comma-separated subset of csv,json")
        return p

    seed = {"type": _parse_seed, "help": "override the run seed"}
    common("run", "single run, emit trace + theory report").add_argument("--seed", **seed)
    # compare runs its seed range: there is no one run seed to override
    common("compare", "paired fixed-vs-dynamic comparison").add_argument(
        "--seeds", type=_parse_seed_range, help="seed range like 0..49"
    )
    common("sweep", "grid over widths or schedule kinds").add_argument("--seed", **seed)
    pv = sub.add_parser("verify", help="analytical verification suites")
    pv.add_argument("check", choices=sorted(VERIFIERS))
    pv.add_argument("--out", help="artifact directory (optional)")
    pv.add_argument("--seed", type=_parse_seed, default=0)
    sub.add_parser("defaults", help="print every config key with its default")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    if args.verb == "defaults":
        print(defaults_table())
        return EXIT_OK

    if args.verb == "verify":
        spec = ExperimentSpec(
            kind="verify",
            check=args.check,
            run=RunConfig(seed=args.seed),
        )
        if args.out:
            return run_experiment(spec, args.out, command="verify " + args.check)
        return _do_verify(spec, None)

    config_path = Path(args.config)
    if not config_path.is_file():
        print(f"error: config file {config_path} not found", file=sys.stderr)
        return EXIT_USAGE
    text = config_path.read_text()
    try:
        spec = parse_config(text)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE

    verb_kind = "single" if args.verb == "run" else args.verb
    if spec.kind not in ("single", verb_kind):
        print(
            f"error: config declares kind={spec.kind!r} but verb is {args.verb!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    overrides = {"kind": verb_kind}
    if getattr(args, "seeds", None):
        overrides["seeds"] = args.seeds
    if args.format:
        overrides["formats"] = args.format
    if getattr(args, "seed", None) is not None:
        overrides["run"] = spec.run.with_seed(args.seed)
    spec = dataclasses.replace(spec, **overrides)

    command = "dqsim " + " ".join(argv)
    return run_experiment(spec, args.out, config_text=text, command=command)


if __name__ == "__main__":
    sys.exit(main())
