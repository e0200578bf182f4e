"""Synchronous W-worker parameter-server simulation with exact bit accounting.

Each round every worker draws a stochastic gradient at the current point,
quantizes it with the round's bit width, and transmits the encoded byte
frame; the server decodes all frames, averages the dequantized gradients,
takes the descent step, and asks the schedule for the next width.  The
workers' random draws are made one worker at a time; their gradients,
quantization, the codec and the average then run once per round on (W, d)
arrays.  Charged communication is exactly W * (d * b_t + b_pre) bits per
round, and the frames actually produced are length-checked against that
accounting.

Runs are deterministic given the config: all randomness flows through
per-(worker, iteration) Philox streams, so worker evaluation order cannot
change the trace and any finished run can be replayed bit for bit.  A run
builds one Generator, its calibration stream, and re-keys it in place for
each (worker, iteration) rather than building W * T of them.

Every round also records F(x_t) and ||grad F(x_t)|| for the trace, from one
full-data pass.  Under minibatch sampling no worker reads that pass, so on a
dataset of at least OVERLAP_ENTRIES entries (n * d), in a process that may
use two cores, the pass for round t runs on one helper thread while the
main thread makes the workers' draws, gradients, quantization, codec and
average; its two products over the design matrix release the GIL.  The
pass is joined before the divergence guard, the step and the schedule
update, and if the workers' phase raises, the guard is applied before the
error is re-raised.  The Gaussian oracle adds its noise to the exact
gradient, so its runs (and every quadratic) keep the serial order: pass,
guard, then workers.  Both orders make the same calls on the same data, so
transcripts are identical.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import theory
from .objective import GradientOracle, LogisticObjective, QuadraticObjective, make_dataset
from .quant import (
    QuantizedBatch,
    QuantizerConfig,
    decode,
    encode,
    frame_bytes,
    quantize,
    sign_quantize,
)
from .schedule import (
    DynamicSchedule,
    FixedSchedule,
    SchedulerState,
    SignSchedule,
    alpha_closed_form,
    budget_satisfaction,
)
from .streams import LANE_AUX, worker_stream

__all__ = [
    "ObjectiveSpec",
    "OracleSpec",
    "ScheduleSpec",
    "RunConfig",
    "RunTrace",
    "DivergenceError",
    "ReplayMismatchError",
    "CSV_HEADER",
    "build_objective",
    "build_oracle",
    "build_schedule",
    "initial_point",
    "aggregate",
    "run",
    "replay",
    "theory_report_for",
    "trace_csv",
    "trace_json_dict",
    "write_trace",
]

CSV_HEADER = "t,loss,grad_norm,gbar,bits,round_bits,cum_bits"

DIVERGENCE_FACTOR = 1e6

# A minibatch run whose dataset holds at least this many entries (n * d)
# computes each round's full-data loss and gradient on a helper thread while
# the workers sample, quantize and send, when the process may use two cores.
# The speed of an overlapped round against a serial one, on a 2-core box (one
# BLAS thread, logistic, 16-row minibatches, medians of 8 to 10 alternating
# runs): x0.91 at n * d = 10^5, x0.93 at 1.0e6, x0.96 at 4.1e6, x0.74 to x1.32
# from 5.1e6 to 8.2e6 by shape (slower in 6 of 8 readings), and x1.11 to x1.76
# at every shape from 1.02e7 to 2.05e7.  Below the crossover the helper waits
# on the GIL behind the main thread's Python loops.
OVERLAP_ENTRIES = 10_000_000


class DivergenceError(RuntimeError):
    """Loss became non-finite or blew past the divergence guard."""

    def __init__(self, message: str, trace: "RunTrace"):
        super().__init__(message)
        self.trace = trace


class ReplayMismatchError(RuntimeError):
    """A replayed run diverged from the recorded trace."""

    def __init__(self, iteration: int, field_name: str):
        super().__init__(
            f"replay diverged from the recorded trace at iteration {iteration} "
            f"(field {field_name!r})"
        )
        self.iteration = iteration
        self.field_name = field_name


@dataclass(frozen=True)
class ObjectiveSpec:
    kind: str = "quadratic-isotropic"  # quadratic-isotropic | quadratic | logistic
    d: int = 4
    lam: float = 1.0  # isotropic curvature
    mu: float = 1.0  # quadratic spectrum range
    L: float = 4.0
    hessian_seed: int = 7
    n: int = 2000  # logistic dataset size
    ridge: float = 0.1
    label_noise: float = 0.2
    data_seed: int = 11

    def __post_init__(self):
        if self.kind not in ("quadratic-isotropic", "quadratic", "logistic"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("dimension must be at least 1")


@dataclass(frozen=True)
class OracleSpec:
    kind: str = "gaussian"  # gaussian | minibatch
    sigma: float = 0.0
    batch_size: int = 32
    shard_mode: str = "split"  # split | replicate
    calibration_draws: int = 64

    def __post_init__(self):
        if self.kind not in ("gaussian", "minibatch"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str = "dynamic"  # fixed | ternary | sign | dynamic
    bits: int = 8  # fixed width
    epsilon: float = 0.1
    gamma: float = 0.5
    tau: int = 100
    b_min: int = 2
    b_max: int = 32
    b0: int = 8
    alpha_source: str = "estimate"
    eps_q_hat: float | None = None  # direct budget override

    def __post_init__(self):
        if self.kind not in ("fixed", "ternary", "sign", "dynamic"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")


@dataclass(frozen=True)
class RunConfig:
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    oracle: OracleSpec = field(default_factory=OracleSpec)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    W: int = 8
    T: int = 200
    eta: float = 0.1
    seed: int = 0
    p: float = 2.0
    b_pre: int = 32
    x0: str = "ones"  # ones | zeros | gaussian
    x0_scale: float = 1.0
    x0_seed: int = 12345

    def __post_init__(self):
        if self.W < 1 or self.T < 1:
            raise ValueError("W and T must be at least 1")
        if not self.eta > 0:
            raise ValueError("learning rate must be positive")
        if self.b_pre not in (32, 64):
            raise ValueError("b_pre must be 32 or 64")
        if self.x0 not in ("ones", "zeros", "gaussian"):
            raise ValueError(f"unknown x0 kind {self.x0!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        payload = dict(payload)
        payload["objective"] = ObjectiveSpec(**payload.get("objective", {}))
        payload["oracle"] = OracleSpec(**payload.get("oracle", {}))
        payload["schedule"] = ScheduleSpec(**payload.get("schedule", {}))
        return cls(**payload)

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)


@functools.lru_cache(maxsize=64)
def build_objective(spec: ObjectiveSpec):
    """Objective instance for a spec; cached so per-seed runs share the
    (potentially expensive) dataset, eigenbasis, and optimum computations."""
    if spec.kind == "quadratic-isotropic":
        return QuadraticObjective.isotropic(spec.d, spec.lam)
    if spec.kind == "quadratic":
        rng = np.random.default_rng(spec.hessian_seed)
        return QuadraticObjective.random_pd(spec.d, spec.mu, spec.L, rng)
    X, y = make_dataset(spec.n, spec.d, spec.data_seed, spec.label_noise)
    return LogisticObjective(X, y, ridge=spec.ridge)


def build_oracle(config: RunConfig, objective) -> GradientOracle:
    o = config.oracle
    return GradientOracle(
        objective,
        workers=config.W,
        noise=o.kind,
        sigma=o.sigma,
        batch_size=o.batch_size,
        shard_mode=o.shard_mode,
        norm_order=config.p,
    )


def build_schedule(config: RunConfig, objective):
    s = config.schedule
    if s.kind == "fixed":
        return FixedSchedule(s.bits)
    if s.kind == "ternary":
        return FixedSchedule(2, kind="ternary")
    if s.kind == "sign":
        return SignSchedule()
    L, mu = objective.constants()
    state = SchedulerState(
        T=config.T,
        W=config.W,
        d=objective.d,
        eta=config.eta,
        L=L,
        mu=mu,
        epsilon=s.epsilon,
        gamma=s.gamma,
        tau=s.tau,
        b_min=s.b_min,
        b_max=s.b_max,
        b0=s.b0,
        alpha_source=s.alpha_source,
        eps_q_hat=s.eps_q_hat,
    )
    return DynamicSchedule(state)


def initial_point(config: RunConfig, d: int) -> np.ndarray:
    if config.x0 == "zeros":
        return np.zeros(d)
    if config.x0 == "ones":
        return np.full(d, config.x0_scale)
    rng = np.random.default_rng(config.x0_seed)
    return config.x0_scale * rng.standard_normal(d)


@dataclass
class RunTrace:
    """Per-iteration record of a run plus its summary fields.

    loss[t] is F(x_t) before the round-t update; final_loss is F(x_T).
    cum_bits accumulates W * (d * b_u + b_pre) over u <= t.
    """

    config: RunConfig
    t: np.ndarray
    loss: np.ndarray
    grad_norm: np.ndarray
    gbar: np.ndarray
    bits: np.ndarray
    round_bits: np.ndarray
    cum_bits: np.ndarray
    x_final: np.ndarray
    final_loss: float
    final_gap: float | None
    measured_sigma: float | None
    sigma_per_worker: list | None
    wall_time: float
    diverged: bool = False

    @property
    def total_bits(self) -> int:
        return int(self.cum_bits[-1]) if self.cum_bits.size else 0

    def gap_at(self, horizon: int, optimal_value: float) -> float:
        """F(x_u) - F* at any horizon u in [0, T]."""
        if horizon == self.t.size:
            return self.final_loss - optimal_value
        return float(self.loss[horizon]) - optimal_value


_COMPARED_FIELDS = ("t", "loss", "grad_norm", "gbar", "bits", "round_bits", "cum_bits")


def aggregate(frames: QuantizedBatch) -> np.ndarray:
    """Coordinate-wise mean of a round's dequantized frames.

    Row i is worker i's frame, so the floating-point result cannot depend on
    the order in which frames arrived.
    """
    return frames.dequantized().mean(axis=0)


def _cores() -> int:
    """Number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _overlapped(config: RunConfig, obj) -> bool:
    """Whether run() overlaps each round's full-data pass with its workers.

    Only the minibatch oracle qualifies: no worker reads the exact gradient,
    while the Gaussian oracle adds its noise to it.
    """
    return (
        config.oracle.kind == "minibatch"
        and obj.n * obj.d >= OVERLAP_ENTRIES
        and _cores() >= 2
    )


def run(config: RunConfig, _worker_order=None) -> RunTrace:
    """Execute T synchronous rounds of quantized distributed SGD.

    _worker_order permutes only the order in which workers' streams are
    derived and drawn from (a determinism test hook); the transcript is
    identical for any order.
    """
    start = time.perf_counter()
    obj = build_objective(config.objective)
    oracle = build_oracle(config, obj)
    schedule = build_schedule(config, obj)
    d = obj.d
    W, T, eta, seed = config.W, config.T, config.eta, config.seed
    order = list(range(W)) if _worker_order is None else list(_worker_order)
    if sorted(order) != list(range(W)):
        raise ValueError("worker order must be a permutation of range(W)")

    measured_sigma = None
    sigma_per_worker = None
    x = initial_point(config, d)
    # the run's one Generator: calibration's stream, then re-keyed for every
    # (worker, iteration) of the round loop
    stream = worker_stream(seed, 0, 0, LANE_AUX)

    ewu_cfg = {}

    def cfg_for(bits: int) -> QuantizerConfig:
        if bits not in ewu_cfg:
            ewu_cfg[bits] = QuantizerConfig(bits=bits, p=config.p, b_pre=config.b_pre)
        return ewu_cfg[bits]

    cols = {name: [] for name in _COMPARED_FIELDS}
    cum_bits = 0
    draws = [None] * W
    uniforms = np.empty((W, d))

    def partial_trace(diverged: bool, final_loss: float) -> RunTrace:
        return RunTrace(
            config=config,
            t=np.array(cols["t"], dtype=np.int64),
            loss=np.array(cols["loss"]),
            grad_norm=np.array(cols["grad_norm"]),
            gbar=np.array(cols["gbar"]),
            bits=np.array(cols["bits"], dtype=np.int64),
            round_bits=np.array(cols["round_bits"], dtype=np.int64),
            cum_bits=np.array(cols["cum_bits"], dtype=np.int64),
            x_final=x.copy(),
            final_loss=final_loss,
            final_gap=None,
            measured_sigma=measured_sigma,
            sigma_per_worker=sigma_per_worker,
            wall_time=time.perf_counter() - start,
            diverged=diverged,
        )

    pool = None
    if _overlapped(config, obj):
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="dqsim-full-pass")

    def full_pass(point: np.ndarray):
        """Start F and grad F at point; the returned callable waits for them.

        Only loss_and_gradient runs on the helper, and it calls no other
        method of the objective: the benchmark's spans (bench/tracing.py)
        wrap loss, gradient, loss_on and gradient_on with one stack for all
        threads.
        """
        if pool is None:
            value = obj.loss_and_gradient(point)
            return lambda: value
        return pool.submit(obj.loss_and_gradient, point).result

    def checked(t: int, join):
        f_t, exact = join()
        if not np.isfinite(f_t) or f_t > guard:
            raise DivergenceError(
                f"loss {f_t} at iteration {t} tripped the divergence guard",
                partial_trace(True, f_t),
            )
        return f_t, exact

    # leaving the block joins a pending pass, also on an exception
    with pool or contextlib.nullcontext():
        join = full_pass(x)
        if config.oracle.kind == "minibatch" and config.oracle.calibration_draws > 0:
            measured_sigma, sigma_per_worker = oracle.calibrate(
                x, config.oracle.calibration_draws, stream
            )
        elif config.oracle.kind == "gaussian":
            measured_sigma = config.oracle.sigma
        f_t, exact = join()
        b = schedule.start(f_t)
        guard = DIVERGENCE_FACTOR * max(f_t, 1.0)

        for t in range(T):
            if t > 0:
                join = full_pass(x)
            exact = None  # the minibatch oracle reads no exact gradient
            if pool is None:
                # the serial order: the Gaussian oracle adds its noise to the
                # exact gradient, and a diverged point sends no frames
                f_t, exact = checked(t, join)
            try:
                for i in order:
                    # one stream per (worker, iteration), re-keyed into the
                    # run's one Generator: the oracle draws first, then the d
                    # stochastic-rounding draws go into row i.  Both finish
                    # before the next worker's re-key, and draw() keeps no
                    # reference to the stream.
                    worker_stream(seed, i, t, into=stream)
                    draws[i] = oracle.draw(i, stream)
                    if b > 1:
                        stream.random(out=uniforms[i])
                grads = oracle.gradients(x, draws, exact)
                if b == 1:
                    sent = sign_quantize(grads, b_pre=config.b_pre)
                else:
                    sent = quantize(grads, cfg_for(b), uniforms)
                data = encode(sent)
                if len(data) != W * frame_bytes(d, b, config.b_pre):
                    raise RuntimeError("codec produced frames inconsistent with accounting")
                received = decode(data, d, cfg_for(b), W)

                # Python's float power, not numpy's square: the two round some
                # float64 norms differently in the last bit, and gbar is
                # defined by the former
                gbar = float(np.sqrt(np.mean([norm**2 for norm in received.norms.tolist()])))
                mean = aggregate(received)
            except Exception:
                # at a diverged point the guard's error comes first, as it
                # does when the pass runs before the workers
                checked(t, join)
                raise
            f_t, exact = checked(t, join)
            grad_norm = float(np.linalg.norm(exact))
            x = x - eta * mean

            round_bits = W * (d * b + config.b_pre)
            cum_bits += round_bits
            cols["t"].append(t)
            cols["loss"].append(f_t)
            cols["grad_norm"].append(grad_norm)
            cols["gbar"].append(gbar)
            cols["bits"].append(b)
            cols["round_bits"].append(round_bits)
            cols["cum_bits"].append(cum_bits)

            b = schedule.update(t, f_t, gbar)

    final_loss = obj.loss(x)
    if not np.isfinite(final_loss) or final_loss > guard:
        raise DivergenceError(
            f"final loss {final_loss} tripped the divergence guard",
            partial_trace(True, final_loss),
        )
    trace = partial_trace(False, final_loss)
    try:
        trace.final_gap = final_loss - obj.optimal_value()
    except Exception:
        trace.final_gap = None
    return trace


def replay(trace: RunTrace, config: RunConfig | None = None) -> RunTrace:
    """Re-run a finished trace's config and demand a bit-identical transcript.

    Wall time is the one field excluded from comparison.  Raises
    ReplayMismatchError naming the first divergent iteration otherwise.
    """
    config = trace.config if config is None else config
    fresh = run(config)
    for name in _COMPARED_FIELDS:
        a = getattr(trace, name)
        c = getattr(fresh, name)
        if a.shape != c.shape:
            raise ReplayMismatchError(min(a.size, c.size), name)
        diff = np.nonzero(a != c)[0]
        if diff.size:
            raise ReplayMismatchError(int(diff[0]), name)
    if not np.array_equal(trace.x_final, fresh.x_final):
        raise ReplayMismatchError(trace.t.size, "x_final")
    if trace.final_loss != fresh.final_loss:
        raise ReplayMismatchError(trace.t.size, "final_loss")
    return fresh


def theory_report_for(trace: RunTrace) -> theory.TheoryReport:
    """Analytical companion for a finished run.

    The convergence-bound series uses the realized (gbar_t, b_t) history and
    the run's sampling-noise level; the exact quadratic series instantiates
    the per-step variance ceiling.  The sign codec sits outside the unbiased
    uniform family, so only the contraction/cost diagnostics are emitted for
    it.
    """
    config = trace.config
    obj = build_objective(config.objective)
    L, mu = obj.constants()
    alpha = alpha_closed_form(config.eta, L, mu)
    contractive = 0.0 < alpha < 1.0
    sigma = trace.measured_sigma if trace.measured_sigma is not None else 0.0

    gap0 = None
    try:
        gap0 = float(trace.loss[0]) - obj.optimal_value()
    except Exception:
        pass

    bound_series = None
    exact_series = None
    dq_bound = None
    fixed_bound = None
    am = gm = None
    ewu = bool(np.all(trace.bits >= 2)) and trace.bits.size > 0

    if gap0 is not None and ewu:
        bound_series = theory.theorem1_bound(
            gap0, L, mu, config.eta, sigma, config.W, obj.d, trace.gbar, trace.bits
        )
        if isinstance(obj, QuadraticObjective):
            traces = np.array(
                [
                    theory.quantization_noise_covariance_trace(
                        sigma, config.W, obj.d, float(g), int(bb)
                    )
                    for g, bb in zip(trace.gbar, trace.bits)
                ]
            )
            eigvals, basis = obj.spectrum()
            exact_series = theory.theorem3_exact_series(
                eigvals,
                basis,
                initial_point(config, obj.d),
                obj.optimum(),
                traces / obj.d,
                config.eta,
                trace.t.size,
            )
    if contractive:
        T = trace.t.size
        am = theory.am_alpha(alpha, T)
        gm = theory.gm_alpha(alpha, T)
        if gap0 is not None and ewu:
            if config.schedule.kind == "dynamic":
                state = build_schedule(config, obj).state
                eps_q_hat = state.eps_q_hat
            else:
                eps_q_hat = budget_satisfaction(trace.bits, trace.gbar, alpha)
            if eps_q_hat > 0 and gap0 > 0:
                dq_bound = theory.dq_total_cost_bound(
                    config.W, obj.d, T, L, gap0, sigma, eps_q_hat, alpha, config.b_pre
                )
                fixed_bound = theory.fixed_total_cost_bound(
                    config.W, obj.d, T, L, gap0, sigma, eps_q_hat, alpha, config.b_pre
                )
    return theory.TheoryReport(
        alpha=alpha,
        contractive=contractive,
        theorem1_bound_series=bound_series,
        theorem3_exact_series=exact_series,
        dq_cost_bound=dq_bound,
        fixed_cost_bound=fixed_bound,
        am=am,
        gm=gm,
    )


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def trace_csv(trace: RunTrace) -> str:
    """Fixed-schema CSV: one row per iteration, 17-significant-digit floats,
    LF line endings."""
    lines = [CSV_HEADER]
    for i in range(trace.t.size):
        lines.append(
            f"{trace.t[i]},{_fmt(trace.loss[i])},{_fmt(trace.grad_norm[i])},"
            f"{_fmt(trace.gbar[i])},{trace.bits[i]},{trace.round_bits[i]},"
            f"{trace.cum_bits[i]}"
        )
    return "\n".join(lines) + "\n"


def trace_json_dict(trace: RunTrace, report: theory.TheoryReport | None = None) -> dict:
    payload = {
        "config": trace.config.to_dict(),
        "trace": {
            "t": [int(v) for v in trace.t],
            "loss": [float(v) for v in trace.loss],
            "grad_norm": [float(v) for v in trace.grad_norm],
            "gbar": [float(v) for v in trace.gbar],
            "bits": [int(v) for v in trace.bits],
            "round_bits": [int(v) for v in trace.round_bits],
            "cum_bits": [int(v) for v in trace.cum_bits],
        },
        "final": {
            "x": [float(v) for v in trace.x_final],
            "loss": float(trace.final_loss),
            "gap": None if trace.final_gap is None else float(trace.final_gap),
            "measured_sigma": trace.measured_sigma,
            "sigma_per_worker": trace.sigma_per_worker,
            "wall_time": trace.wall_time,
            "diverged": trace.diverged,
        },
        "theory": None if report is None else report.to_dict(),
    }
    return payload


def write_trace(trace: RunTrace, csv_path=None, json_path=None, report=None) -> None:
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            fh.write(trace_csv(trace))
    if json_path is not None:
        with open(json_path, "w") as fh:
            json.dump(trace_json_dict(trace, report), fh, indent=2)
            fh.write("\n")
