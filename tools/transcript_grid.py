"""Transcript-identity grid: one SHA-256 per run config, for comparing two checkouts.

A change that claims to keep transcripts byte-identical runs the grid on the
source tree before and after it, then compares the two files:

    python3 tools/transcript_grid.py hash OLD_CHECKOUT/src old.json
    python3 tools/transcript_grid.py hash src new.json
    python3 tools/transcript_grid.py compare old.json new.json

`hash` imports dqsim from the given src directory, runs every config of the
grid, and writes {config id: SHA-256} as JSON.  Each hash covers the run's
trace CSV, x_final, final_loss, final_gap, measured sigma (and its
per-worker values) and theory_report_for(trace).to_dict(); a run that
diverges is hashed from its partial trace.  `compare` prints the number of
configs that differ or are missing on one side and exits 1 if there are any.

The hashes depend on the BLAS build and the CPU, so only files made on one
machine compare; the grid is not part of the test suite for that reason.
BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

T = 40
ISOTROPIC_D = (1, 4, 50, 37)
DENSE_D = 30
LOGISTIC_D = (20, 50, 300)
LOGISTIC_N = 400  # divisible by every W below
# n * d at or above dqsim.sim.OVERLAP_ENTRIES: the full-data pass runs beside
# the workers' phase (on a box with two cores)
OVERLAP_D, OVERLAP_N, OVERLAP_W, OVERLAP_T = 5000, 2048, 8, 4
FIXED_BITS = (2, 3, 6, 9, 17, 32)
B_PRES = (32, 64)
NORM_ORDERS = (1.0, 2.0, 3.0, float("inf"))
WORKERS = (1, 4, 5, 16)


def _objectives(ObjectiveSpec):
    objs = {f"iso{d}": ObjectiveSpec(kind="quadratic-isotropic", d=d, lam=1.0) for d in ISOTROPIC_D}
    objs[f"dense{DENSE_D}"] = ObjectiveSpec(kind="quadratic", d=DENSE_D, mu=1.0, L=4.0)
    for d in LOGISTIC_D:
        objs[f"logistic{d}"] = ObjectiveSpec(
            kind="logistic", d=d, n=LOGISTIC_N, ridge=0.1, data_seed=11
        )
    return objs


def _schedules(ScheduleSpec):
    scheds = {f"fixed{b}": ScheduleSpec(kind="fixed", bits=b) for b in FIXED_BITS}
    scheds["sign"] = ScheduleSpec(kind="sign")
    scheds["ternary"] = ScheduleSpec(kind="ternary")
    for source in ("estimate", "closed_form"):
        scheds[f"dynamic-{source}"] = ScheduleSpec(
            kind="dynamic", tau=10, b0=6, alpha_source=source
        )
    return scheds


def grid(sim) -> dict:
    """{config id: RunConfig} for the whole grid."""
    objs = _objectives(sim.ObjectiveSpec)
    scheds = _schedules(sim.ScheduleSpec)
    gaussian = sim.OracleSpec(kind="gaussian", sigma=0.5)
    exact = sim.OracleSpec(kind="gaussian", sigma=0.0)
    split = sim.OracleSpec(kind="minibatch", batch_size=8, calibration_draws=4)
    replicate = sim.OracleSpec(
        kind="minibatch", batch_size=10**6, shard_mode="replicate", calibration_draws=2
    )
    configs = {}

    def add(obj, sched, oracle_name, oracle, W=4, p=2.0, b_pre=32, rounds=T, **extra):
        key = f"{obj}/{sched}/{oracle_name}/W{W}/p{p:g}/bpre{b_pre}"
        if extra:
            key += "/" + "/".join(f"{k}={v}" for k, v in sorted(extra.items()))
        eta = 0.3 if obj.startswith("logistic") else 0.1
        configs[key] = sim.RunConfig(
            objective=objs[obj], oracle=oracle, schedule=scheds[sched],
            W=W, T=rounds, eta=eta, seed=len(configs), p=p, b_pre=b_pre, **extra,
        )

    # every objective, schedule and b_pre at W=4, p=2
    for obj in objs:
        for sched in scheds:
            for b_pre in B_PRES:
                add(obj, sched, "gauss0.5", gaussian, b_pre=b_pre)
                if obj.startswith("logistic"):
                    add(obj, sched, "split", split, b_pre=b_pre)
    # norm orders and worker counts on one objective of each family
    for obj, oracle_name, oracle in (
        ("iso37", "gauss0.5", gaussian),
        (f"dense{DENSE_D}", "gauss0.5", gaussian),
        ("logistic20", "split", split),
    ):
        for sched in ("fixed6", "sign", "dynamic-estimate"):
            for p in NORM_ORDERS:
                for W in WORKERS:
                    if (p, W) != (2.0, 4):
                        add(obj, sched, oracle_name, oracle, W=W, p=p)
    # no sampling noise
    for obj in ("iso4", f"dense{DENSE_D}", "logistic50"):
        for sched in ("fixed3", "fixed17", "dynamic-closed_form", "sign"):
            for W in (1, 4):
                add(obj, sched, "gauss0", exact, W=W)
    # full-batch replicated shards
    for obj in ("logistic20", "logistic50"):
        for sched in ("fixed2", "fixed9", "ternary", "dynamic-estimate", "sign"):
            for W in (4, 5):
                add(obj, sched, "replicate", replicate, W=W)
    # a zero gradient at the optimum: every norm is 0
    for sched in ("fixed6", "dynamic-estimate", "sign"):
        add("iso50", sched, "gauss0", exact, x0="zeros")
    # a dataset large enough that each round's full-data pass overlaps the
    # workers' phase
    big = f"logistic{OVERLAP_D}n{OVERLAP_N}"
    objs[big] = sim.ObjectiveSpec(
        kind="logistic", d=OVERLAP_D, n=OVERLAP_N, ridge=0.1, data_seed=11
    )
    for oracle_name, oracle in (("split", split), ("replicate", replicate)):
        add(big, "dynamic-closed_form", oracle_name, oracle, W=OVERLAP_W, rounds=OVERLAP_T)
    return configs


def _digest(sim, trace) -> str:
    h = hashlib.sha256()
    h.update(sim.trace_csv(trace).encode())
    h.update(trace.x_final.tobytes())
    summary = {
        "final_loss": trace.final_loss,
        "final_gap": trace.final_gap,
        "measured_sigma": trace.measured_sigma,
        "sigma_per_worker": trace.sigma_per_worker,
        "diverged": trace.diverged,
    }
    if not trace.diverged:
        summary["theory"] = sim.theory_report_for(trace).to_dict()
    h.update(json.dumps(summary, sort_keys=True).encode())
    return h.hexdigest()


def hash_grid(src: Path, out: Path) -> None:
    sys.path.insert(0, str(src.resolve()))
    from dqsim import sim

    start = time.perf_counter()
    hashes = {}
    for key, config in grid(sim).items():
        try:
            trace = sim.run(config)
        except sim.DivergenceError as err:
            trace = err.trace
        hashes[key] = _digest(sim, trace)
    out.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"{len(hashes)} configs hashed in {time.perf_counter() - start:.1f} s -> {out}")


def compare(a: Path, b: Path) -> int:
    left, right = json.loads(a.read_text()), json.loads(b.read_text())
    differ = sorted(k for k in left.keys() & right.keys() if left[k] != right[k])
    missing = sorted(left.keys() ^ right.keys())
    for key in differ:
        print(f"differs: {key}")
    for key in missing:
        print(f"only in {a if key in left else b}: {key}")
    print(
        f"{len(left.keys() & right.keys())} configs compared, {len(differ)} differ, "
        f"{len(missing)} on one side only"
    )
    return 1 if differ or missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    h = sub.add_parser("hash", help="hash every grid config run from SRC")
    h.add_argument("src", type=Path, help="a checkout's src directory")
    h.add_argument("out", type=Path, help="JSON file to write")
    c = sub.add_parser("compare", help="compare two hash files")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "hash":
        hash_grid(args.src, args.out)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
