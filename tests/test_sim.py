"""Round loop: exactness witnesses, accounting, determinism, trace formats."""

import json
import math
import threading

import numpy as np
import pytest

from dqsim import sim
from dqsim.objective import LogisticObjective
from dqsim.quant import QuantizerConfig, quantize
from dqsim.sim import (
    CSV_HEADER,
    DivergenceError,
    ObjectiveSpec,
    OracleSpec,
    ReplayMismatchError,
    RunConfig,
    ScheduleSpec,
    aggregate,
    build_objective,
    replay,
    run,
    theory_report_for,
    trace_csv,
    trace_json_dict,
)


def quad_config(**kwargs):
    defaults = dict(
        objective=ObjectiveSpec(kind="quadratic-isotropic", d=3, lam=1.0),
        oracle=OracleSpec(kind="gaussian", sigma=0.0),
        schedule=ScheduleSpec(kind="fixed", bits=32),
        W=2,
        T=50,
        eta=0.1,
        seed=0,
        x0="ones",
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


# ---------------------------------------------------------------------------
# exactness witnesses
# ---------------------------------------------------------------------------


def test_scalar_halving_recursion_is_exact():
    cfg = quad_config(
        objective=ObjectiveSpec(kind="quadratic-isotropic", d=1, lam=1.0),
        W=1,
        T=20,
        eta=0.5,
    )
    trace = run(cfg)
    # x_t = 0.5**t exactly, so the loss column is 0.5 * 0.25**t exactly
    for t in range(20):
        assert trace.loss[t] == 0.5 * 0.25**t
    assert trace.x_final[0] == 0.5**20


def test_full_precision_matches_exact_descent():
    spec = ObjectiveSpec(kind="quadratic", d=3, mu=1.0, L=4.0, hessian_seed=3)
    cfg = quad_config(objective=spec, W=3, T=100, eta=0.1)
    trace = run(cfg)
    obj = build_objective(spec)
    # independent recursion oracle
    x = np.ones(3)
    for _ in range(100):
        x = x - 0.1 * obj.gradient(x)
    assert trace.final_loss == pytest.approx(obj.loss(x), rel=1e-6)


def test_cumulative_bits_formula():
    cfg = quad_config(
        objective=ObjectiveSpec(kind="quadratic-isotropic", d=10, lam=1.0),
        schedule=ScheduleSpec(kind="fixed", bits=4),
        W=8,
        T=1,
    )
    trace = run(cfg)
    assert trace.total_bits == 8 * (10 * 4 + 32) == 576


def test_accounting_matches_recomputation_for_dynamic_runs():
    cfg = quad_config(
        oracle=OracleSpec(kind="gaussian", sigma=0.4),
        schedule=ScheduleSpec(kind="dynamic", epsilon=0.05, tau=7, b0=6),
        T=60,
    )
    trace = run(cfg)
    d = 3
    recomputed = np.cumsum(cfg.W * (d * trace.bits + cfg.b_pre))
    assert np.array_equal(trace.cum_bits, recomputed)
    assert np.array_equal(trace.round_bits, cfg.W * (d * trace.bits + cfg.b_pre))


def test_sign_schedule_accounting():
    cfg = quad_config(schedule=ScheduleSpec(kind="sign"), T=5)
    trace = run(cfg)
    assert np.all(trace.bits == 1)
    assert np.all(trace.round_bits == cfg.W * (3 * 1 + 32))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_identical_and_opposite():
    rng = np.random.default_rng(0)
    g = rng.standard_normal(5)
    cfg = QuantizerConfig(bits=6)
    u = rng.random(5)
    same = aggregate(quantize(np.stack([g, g, g]), cfg, np.stack([u, u, u])))
    single = aggregate(quantize(g[None], cfg, u[None]))
    assert np.allclose(same, single, rtol=0, atol=0)
    pair = quantize(np.stack([g, -g]), cfg, np.stack([u, u]))
    assert np.array_equal(aggregate(pair), np.zeros(5))


def test_aggregate_matches_brute_force_mean():
    rng = np.random.default_rng(1)
    batch = quantize(rng.standard_normal((7, 4)), QuantizerConfig(bits=5), rng)
    got = aggregate(batch)
    s = batch.level_count
    brute = [
        math.fsum(
            float(batch.norm[i]) * int(batch.signs[i, j]) * int(batch.levels[i, j]) / s
            for i in range(7)
        )
        / 7
        for j in range(4)
    ]
    assert np.allclose(got, brute, rtol=1e-12)


def test_aggregated_quantization_is_unbiased():
    rng = np.random.default_rng(2)
    gs = rng.standard_normal((3, 5))
    plain = gs.mean(axis=0)
    cfg = QuantizerConfig(bits=3, b_pre=64)
    n = 20_000
    acc = np.zeros((n, 5))
    from dqsim.quant import dequantized_draws

    for g in gs:
        acc += dequantized_draws(g, cfg, rng, n)
    acc /= 3
    mean = acc.mean(axis=0)
    se = acc.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mean - plain) <= 5 * se)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_replay_bit_identical():
    cfg = quad_config(
        oracle=OracleSpec(kind="gaussian", sigma=0.3),
        schedule=ScheduleSpec(kind="dynamic", epsilon=0.1, tau=5, b0=5),
    )
    trace = run(cfg)
    again = replay(trace)
    assert np.array_equal(trace.loss, again.loss)
    assert np.array_equal(trace.x_final, again.x_final)


def test_replay_detects_seed_change():
    cfg = quad_config(oracle=OracleSpec(kind="gaussian", sigma=0.3))
    trace = run(cfg)
    with pytest.raises(ReplayMismatchError) as err:
        replay(trace, cfg.with_seed(1))
    assert err.value.iteration >= 0


def test_changing_seed_changes_trace():
    cfg = quad_config(oracle=OracleSpec(kind="gaussian", sigma=0.3))
    a = run(cfg)
    b = run(cfg.with_seed(123))
    assert not np.array_equal(a.loss, b.loss)


def test_changing_w_scales_bits_by_formula():
    base = quad_config(schedule=ScheduleSpec(kind="fixed", bits=5), T=9)
    d, b_pre = 3, 32
    for W in (1, 2, 7):
        trace = run(
            RunConfig(
                objective=base.objective,
                oracle=base.oracle,
                schedule=base.schedule,
                W=W,
                T=9,
                eta=0.1,
                x0="ones",
            )
        )
        assert trace.total_bits == W * 9 * (3 * 5 + b_pre)
        assert d == 3


def test_worker_order_does_not_matter():
    gaussian_quadratic = quad_config(
        W=5,
        oracle=OracleSpec(kind="gaussian", sigma=0.5),
        schedule=ScheduleSpec(kind="fixed", bits=4),
        T=20,
    )
    minibatch_logistic = RunConfig(
        objective=ObjectiveSpec(kind="logistic", d=6, n=60, ridge=0.1, data_seed=4),
        oracle=OracleSpec(kind="minibatch", batch_size=4, calibration_draws=3),
        schedule=ScheduleSpec(kind="fixed", bits=5),
        W=5,
        T=15,
        eta=0.3,
        x0="zeros",
    )
    for cfg in (gaussian_quadratic, minibatch_logistic):
        forward = run(cfg)
        backward = run(cfg, _worker_order=[4, 3, 2, 1, 0])
        shuffled = run(cfg, _worker_order=[2, 0, 4, 1, 3])
        assert np.array_equal(forward.loss, backward.loss)
        assert np.array_equal(forward.x_final, shuffled.x_final)
        assert np.array_equal(forward.gbar, shuffled.gbar)


def test_monotone_loss_in_expectation_at_full_precision():
    # eta <= 1/L and 32-bit quantization: mean loss is nonincreasing up to
    # 3 standard errors, averaged over 220 seeds
    n_seeds, T = 220, 30
    losses = np.empty((n_seeds, T + 1))
    for k in range(n_seeds):
        cfg = quad_config(
            objective=ObjectiveSpec(kind="quadratic-isotropic", d=4, lam=1.0),
            oracle=OracleSpec(kind="gaussian", sigma=0.2),
            W=2,
            T=T,
            eta=0.1,
            seed=k,
        )
        tr = run(cfg)
        losses[k, :T] = tr.loss
        losses[k, T] = tr.final_loss
    diffs = np.diff(losses, axis=1)
    mean = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / math.sqrt(n_seeds)
    assert np.all(mean <= 3 * se)


# ---------------------------------------------------------------------------
# divergence guard
# ---------------------------------------------------------------------------


def test_divergence_aborts_with_diagnostic_trace():
    cfg = quad_config(eta=3.0, T=60)  # |1 - eta*lam| = 2: geometric blow-up
    with pytest.raises(DivergenceError) as err:
        run(cfg)
    partial = err.value.trace
    assert partial.diverged
    assert partial.t.size < 60
    assert np.all(np.isfinite(partial.loss))


# ---------------------------------------------------------------------------
# the full-data pass beside the workers' phase
# ---------------------------------------------------------------------------

SERIAL = 10**30  # OVERLAP_ENTRIES no dataset reaches
OVERLAPPED = 0  # OVERLAP_ENTRIES every dataset reaches


def minibatch_config(**kwargs):
    defaults = dict(
        objective=ObjectiveSpec(kind="logistic", d=20, n=400, ridge=0.1, data_seed=11),
        oracle=OracleSpec(kind="minibatch", batch_size=8, calibration_draws=4),
        schedule=ScheduleSpec(kind="fixed", bits=6),
        W=4,
        T=30,
        eta=0.3,
        x0="zeros",
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


@pytest.fixture
def callers(monkeypatch):
    """{method name: names of the threads that called it} for the logistic
    objective's full-data methods; the gate sees two cores."""
    seen = {}
    for name in ("loss", "gradient", "loss_on", "gradient_on", "loss_and_gradient"):

        def spied(*args, _method=getattr(LogisticObjective, name), _name=name, **kwargs):
            seen.setdefault(_name, set()).add(threading.current_thread().name)
            return _method(*args, **kwargs)

        monkeypatch.setattr(LogisticObjective, name, spied)
    monkeypatch.setattr(sim, "_cores", lambda: 2)
    return seen


def helper_ran(callers) -> bool:
    main = threading.main_thread().name
    return any(name != main for name in callers.get("loss_and_gradient", ()))


def diverging_minibatch_config():
    # eta = 1e40 sends x_1 to about 1e40: F(x_1) trips the guard, and the
    # round-1 gradient norms overflow a float32 wire norm
    return RunConfig(
        objective=ObjectiveSpec(kind="logistic", d=20, n=400, ridge=0.1, data_seed=11),
        oracle=OracleSpec(kind="minibatch", batch_size=8, calibration_draws=4),
        schedule=ScheduleSpec(kind="fixed", bits=6),
        W=4,
        T=60,
        eta=1e40,
        b_pre=32,
        x0="gaussian",
        x0_scale=10.0,
    )


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_minibatch_divergence_trips_the_guard_on_both_paths(monkeypatch, callers):
    # with the pass beside the workers, round 1's quantize raises on the
    # overflowing norms before the pass is joined; the guard still wins
    partial = []
    for entries in (SERIAL, OVERLAPPED):
        monkeypatch.setattr(sim, "OVERLAP_ENTRIES", entries)
        with pytest.raises(DivergenceError, match="at iteration 1 ") as err:
            run(diverging_minibatch_config())
        partial.append(err.value.trace)
    serial, overlapped = partial
    assert helper_ran(callers)
    assert serial.diverged and overlapped.diverged
    assert trace_csv(overlapped) == trace_csv(serial)
    assert np.array_equal(overlapped.x_final, serial.x_final)
    assert overlapped.final_loss == serial.final_loss


@pytest.mark.parametrize("b_pre", [32, 64])
@pytest.mark.parametrize(
    "schedule",
    [
        ScheduleSpec(kind="fixed", bits=6),
        ScheduleSpec(kind="dynamic", tau=5, b0=6, alpha_source="closed_form"),
    ],
    ids=["fixed6", "dynamic"],
)
@pytest.mark.parametrize("W", [1, 5])
@pytest.mark.parametrize("shard_mode", ["split", "replicate"])
def test_overlapped_pass_keeps_the_transcript(monkeypatch, callers, shard_mode, W, schedule, b_pre):
    config = minibatch_config(
        oracle=OracleSpec(kind="minibatch", batch_size=8, shard_mode=shard_mode, calibration_draws=4),
        schedule=schedule,
        W=W,
        b_pre=b_pre,
    )
    traces = []
    for entries in (SERIAL, OVERLAPPED):
        monkeypatch.setattr(sim, "OVERLAP_ENTRIES", entries)
        traces.append(run(config))
    serial, overlapped = traces
    assert helper_ran(callers)
    for name in sim._COMPARED_FIELDS:
        assert np.array_equal(getattr(overlapped, name), getattr(serial, name)), name
    assert np.array_equal(overlapped.x_final, serial.x_final)
    assert overlapped.final_loss == serial.final_loss
    assert overlapped.measured_sigma == serial.measured_sigma
    assert overlapped.sigma_per_worker == serial.sigma_per_worker


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_overlap_leaves_no_thread_behind(monkeypatch, callers):
    monkeypatch.setattr(sim, "OVERLAP_ENTRIES", OVERLAPPED)
    config = minibatch_config()
    reference = run(config)
    encode = sim.encode
    encoded = []

    def failing_encode(batch):
        encoded.append(batch)
        if len(encoded) == 3:
            raise RuntimeError("planted codec failure")
        return encode(batch)

    before = threading.active_count()
    run(config)
    assert threading.active_count() == before
    replay(reference)

    # the tracebacks keep run()'s frames, and so its executor, alive: the
    # helper must have been joined, not left to garbage collection
    with pytest.raises(DivergenceError) as diverged:
        run(diverging_minibatch_config())
    assert threading.active_count() == before
    replay(reference)

    monkeypatch.setattr(sim, "encode", failing_encode)
    with pytest.raises(RuntimeError, match="planted codec failure") as failed:
        run(config)
    monkeypatch.setattr(sim, "encode", encode)
    assert threading.active_count() == before
    replay(reference)
    assert diverged.value.trace.diverged and failed.traceback

    # the benchmark's spans keep one stack for all threads, so only
    # loss_and_gradient, which is not traced, may run on the helper
    assert helper_ran(callers)
    main = {threading.main_thread().name}
    for name in ("loss", "gradient", "loss_on", "gradient_on"):
        assert callers[name] == main, name


# ---------------------------------------------------------------------------
# trace formats
# ---------------------------------------------------------------------------


def test_csv_format_is_exact():
    cfg = quad_config(T=4, oracle=OracleSpec(kind="gaussian", sigma=0.25))
    trace = run(cfg)
    text = trace_csv(trace)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert text.endswith("\n") and "\r" not in text
    assert len(lines) == 6  # header + 4 rows + trailing newline
    row = lines[1].split(",")
    assert row[0] == "0"
    assert float(row[1]) == trace.loss[0]  # 17 significant digits round-trip
    assert row[1] == f"{trace.loss[0]:.17g}"
    # byte-exact determinism across replays
    assert trace_csv(replay(trace)) == text


def test_json_payload_contains_config_trace_theory():
    cfg = quad_config(T=6, oracle=OracleSpec(kind="gaussian", sigma=0.25))
    trace = run(cfg)
    payload = trace_json_dict(trace, theory_report_for(trace))
    blob = json.dumps(payload)
    parsed = json.loads(blob)
    assert parsed["config"]["W"] == cfg.W
    assert parsed["config"]["schedule"]["kind"] == "fixed"
    assert len(parsed["trace"]["loss"]) == 6
    assert parsed["final"]["gap"] is not None
    assert parsed["theory"]["alpha"] == pytest.approx(0.81)
    assert parsed["theory"]["gm"] <= parsed["theory"]["am"]
    series = parsed["theory"]["theorem1_bound_series"]
    assert len(series) == 7 and all(v >= 0 for v in series)
    exact = parsed["theory"]["theorem3_exact_series"]
    assert len(exact) == 7 and all(v >= 0 for v in exact)


def test_config_round_trips_through_dict():
    cfg = quad_config(schedule=ScheduleSpec(kind="dynamic", eps_q_hat=7.5))
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_measured_sigma_recorded_for_minibatch():
    cfg = RunConfig(
        objective=ObjectiveSpec(kind="logistic", d=4, n=40, ridge=0.1, data_seed=2),
        oracle=OracleSpec(kind="minibatch", batch_size=5, calibration_draws=32),
        schedule=ScheduleSpec(kind="fixed", bits=6),
        W=4,
        T=10,
        eta=0.3,
        x0="zeros",
    )
    trace = run(cfg)
    assert trace.measured_sigma is not None and trace.measured_sigma > 0
    assert len(trace.sigma_per_worker) == 4
    assert trace.measured_sigma == max(trace.sigma_per_worker)
    again = replay(trace)
    assert again.measured_sigma == trace.measured_sigma


def test_exact_gradient_computed_once_per_round(monkeypatch):
    config = quad_config(oracle=OracleSpec(kind="gaussian", sigma=0.3), W=4, T=10)
    obj = build_objective(config.objective)
    calls = []
    gradient = obj.gradient
    monkeypatch.setattr(obj, "gradient", lambda x: calls.append(x) or gradient(x), raising=False)
    run(config)
    assert len(calls) == config.T


def test_one_philox_per_run(monkeypatch):
    # the run's one Generator is re-keyed for every (worker, iteration);
    # building W * T of them costs ten times as much
    config = RunConfig(
        objective=ObjectiveSpec(kind="logistic", d=6, n=80, ridge=0.1, data_seed=2),
        oracle=OracleSpec(kind="minibatch", batch_size=4, calibration_draws=8),
        schedule=ScheduleSpec(kind="fixed", bits=6),
        W=8,
        T=20,
        eta=0.3,
    )
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    trace = run(config)
    assert len(built) == 1
    assert trace.measured_sigma is not None and trace.t.size == config.T
