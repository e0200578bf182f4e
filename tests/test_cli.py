"""Config format, artifact layout, summaries, exit codes."""

import ctypes
import json
import platform
import warnings

import numpy as np
import pytest

from dqsim.cli import (
    ConfigError,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    defaults_table,
    emit_summary,
    format_config,
    main,
    parse_config,
    run_comparison,
    run_experiment,
)
from dqsim.sim import ObjectiveSpec, OracleSpec, RunConfig, ScheduleSpec, run
from dqsim.streams import STREAM_FORMAT

MINIMAL = """
[objective]
kind = quadratic-isotropic

[schedule]
kind = dynamic
"""

FULL = """
# exercise every section
[experiment]
kind = compare
seeds = [0, 3]
compare_fixed_bits = 5
calibration = dynamic-to-fixed
formats = [json]

[objective]
kind = quadratic-isotropic
d = 3
lam = 2.0

[oracle]
kind = gaussian
sigma = 0.25

[run]
W = 2
T = 30
eta = 0.05
seed = 4
p = 2.0
b_pre = 32

[schedule]
kind = dynamic
epsilon = 0.2
gamma = 0.25
tau = 5
b0 = 6
alpha_source = closed_form
"""


def test_minimal_config_gets_documented_defaults():
    spec = parse_config(MINIMAL)
    assert spec.kind == "single"
    assert spec.run.schedule.kind == "dynamic"
    assert spec.run.schedule.tau == 100
    assert spec.run.schedule.b0 == 8
    assert spec.run.b_pre == 32
    assert spec.run.p == 2.0
    assert spec.run.objective.kind == "quadratic-isotropic"


def test_constraint_violation_reported_with_line():
    bad = "[schedule]\ngamma = 1.5\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert any("gamma" in e and "line 2" in e for e in err.value.errors)


def test_duplicate_key_names_both_occurrences():
    bad = "[run]\nW = 2\nW = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msg = err.value.errors[0]
    assert "duplicate" in msg and "line 3" in msg and "line 2" in msg


def test_all_errors_collected_not_fail_fast():
    bad = "[schedule]\ngamma = 2.0\nbogus = 1\n[nope]\nx = 1\n[run]\nW = zero\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert len(err.value.errors) >= 4


def test_dense_quadratic_too_big_for_memory_rejected_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[objective]\nkind = quadratic\nd = 5001\n")
    (msg,) = err.value.errors
    assert "line 3" in msg and "at most 5000" in msg and "GiB" in msg
    assert parse_config("[objective]\nkind = quadratic\nd = 5000\n").run.objective.d == 5000


def test_logistic_dataset_too_big_for_memory_rejected_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[objective]\nkind = logistic\nd = 1000000\n")
    (msg,) = err.value.errors
    assert "line 3" in msg and "at most 60000000" in msg and "2000 * 1000000" in msg
    with pytest.raises(ConfigError) as err:
        parse_config("[objective]\nkind = logistic\nd = 30000\nn = 2001\n")
    (msg,) = err.value.errors
    assert "line 4" in msg and "GiB" in msg
    spec = parse_config("[objective]\nkind = logistic\nn = 2000\nd = 30000\n")
    assert (spec.run.objective.n, spec.run.objective.d) == (2000, 30000)


def test_seed_and_worker_count_limited_to_the_stream_key_with_line():
    # a seed of 2**64 would alias seed 0, and worker 2**24 has no key
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\nW = 16777217\n\nseed = 18446744073709551616\n")
    w_msg, seed_msg = err.value.errors
    assert w_msg.startswith("line 2: [run] W:") and "16777216" in w_msg
    assert seed_msg.startswith("line 4: [run] seed:") and "18446744073709551615" in seed_msg
    spec = parse_config("[run]\nW = 16777216\nseed = 18446744073709551615\n")
    assert (spec.run.W, spec.run.seed) == (2**24, 2**64 - 1)
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\nT = 4294967297\n")
    assert err.value.errors[0].startswith("line 2: [run] T:")


def test_calibration_draws_limited_like_t_with_line():
    # an unbounded count parsed, and calibration then ran until it was killed
    text = "[objective]\nkind = logistic\n[oracle]\nkind = minibatch\ncalibration_draws = {}\n"
    for value in (2**32 + 1, 10**400):
        with pytest.raises(ConfigError) as err:
            parse_config(text.format(value))
        (msg,) = err.value.errors
        assert msg.startswith("line 5: [oracle] calibration_draws:") and "4294967296" in msg
    assert parse_config(text.format(2**32)).run.oracle.calibration_draws == 2**32


def test_seed_flags_limited_like_the_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL + "\n[run]\nT = 5\n")
    out = str(tmp_path / "o")
    for flags in (["--seed", str(2**64)], ["--seed", "-1"], ["--seeds", f"0..{2**31}"]):
        verb = "compare" if flags[0] == "--seeds" else "run"
        assert main([verb, "--config", str(cfg), "--out", out, *flags]) == EXIT_USAGE
    assert main(["run", "--config", str(cfg), "--out", out, "--seed", str(2**64 - 1)]) == EXIT_OK


def test_seed_range_must_be_an_ordered_pair_with_line():
    # a reversed range used to parse and leave compare with zero seeds
    with pytest.raises(ConfigError) as err:
        parse_config("[experiment]\nseeds = [5, 3]\n\n[schedule]\ngamma = 2.0\n")
    seeds_msg, gamma_msg = err.value.errors
    assert seeds_msg.startswith("line 2: [experiment] seeds:") and "5 > 3" in seeds_msg
    assert gamma_msg.startswith("line 5: [schedule] gamma:")
    with pytest.raises(ConfigError) as err:
        parse_config("[experiment]\nkind = compare\nseeds = [1, 2, 3]\n")
    assert err.value.errors[0].startswith("line 3: [experiment] seeds:")
    assert parse_config("[experiment]\nseeds = [3, 3]\n").seeds == (3, 3)


@pytest.mark.parametrize(
    "section,key,spec",
    [
        ("objective", "lam", ObjectiveSpec),
        ("oracle", "sigma", OracleSpec),
        ("run", "eta", RunConfig),
        ("schedule", "gamma", ScheduleSpec),
    ],
)
def test_nan_rejected_by_parser_and_spec(section, key, spec):
    with pytest.raises(ConfigError) as err:
        parse_config(f"[{section}]\n{key} = nan\n")
    (msg,) = err.value.errors
    assert msg.startswith(f"line 2: [{section}] {key}:") and "nan" in msg
    with pytest.raises(ValueError):
        spec(**{key: float("nan")})


@pytest.mark.parametrize(
    "section,key,spec",
    [
        ("objective", "L", ObjectiveSpec),
        ("objective", "mu", ObjectiveSpec),
        ("oracle", "sigma", OracleSpec),
        ("schedule", "epsilon", ScheduleSpec),
        ("schedule", "eps_q_hat", ScheduleSpec),
    ],
)
def test_inf_rejected_by_parser_and_spec(section, key, spec):
    # each used to parse and then end its run in a traceback
    with pytest.raises(ConfigError) as err:
        parse_config(f"[{section}]\n{key} = inf\n")
    (msg,) = err.value.errors
    assert msg.startswith(f"line 2: [{section}] {key}:") and "finite" in msg
    with pytest.raises(ValueError):
        spec(**{key: float("inf")})
    # lam at inf still parses: its run ends in the divergence exit
    assert parse_config("[objective]\nlam = inf\n").run.objective.lam == float("inf")


def test_b_pre_must_be_an_integer_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\nb_pre = 64.0\n")
    (msg,) = err.value.errors
    assert msg.startswith("line 2: [run] b_pre:") and "64.0" in msg
    with pytest.raises(ValueError):
        RunConfig(b_pre=64.0)
    assert parse_config("[run]\nb_pre = 64\n").run.b_pre == 64


def test_float_key_rejects_an_integer_beyond_float_range_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\nT = 5\n\n[objective]\nlam = 1" + "0" * 400 + "\n")
    (msg,) = err.value.errors
    assert msg.startswith("line 5: [objective] lam:") and "float range" in msg
    with pytest.raises(ValueError):
        ObjectiveSpec(lam=10**400)
    assert parse_config("[objective]\nlam = 1" + "0" * 300 + "\n").run.objective.lam == 1e300
    # past Python's int-from-text digit limit the literal stays text
    with pytest.raises(ConfigError) as err:
        parse_config("[objective]\nlam = 1" + "0" * 5000 + "\n")
    assert err.value.errors[0].startswith("line 2: [objective] lam: must be a number")


def test_minibatch_oracle_needs_a_logistic_objective_at_the_later_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[oracle]\nkind = minibatch\n")
    (msg,) = err.value.errors
    assert msg.startswith("line 2: [oracle] kind:") and "logistic" in msg
    with pytest.raises(ConfigError) as err:
        parse_config("[oracle]\nkind = minibatch\n[objective]\nkind = quadratic\n")
    assert err.value.errors[0].startswith("line 4: [oracle] kind:")
    spec = parse_config("[oracle]\nkind = minibatch\n[objective]\nkind = logistic\n")
    assert spec.run.oracle.kind == "minibatch"


def test_split_shards_need_w_to_divide_n_at_the_later_line():
    text = (
        "[objective]\nkind = logistic\nn = 16\n"
        "[oracle]\nkind = minibatch\nshard_mode = {}\n[run]\nW = {}\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text.format("split", 3))
    (msg,) = err.value.errors
    assert msg.startswith("line 8: [oracle] shard_mode") and "n = 16, W = 3" in msg
    assert parse_config(text.format("split", 4)).run.W == 4
    assert parse_config(text.format("replicate", 3)).run.W == 3


def test_x0_scale_must_be_finite_while_p_may_be_inf():
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\nx0_scale = inf\n")
    assert err.value.errors[0].startswith("line 2: [run] x0_scale:")
    # the max-norm stays accepted
    assert parse_config("[run]\np = inf\n").run.p == float("inf")


def test_b_min_above_b_max_rejected_at_the_later_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[schedule]\nb_min = 12\n\nb_max = 4\n")
    (msg,) = err.value.errors
    assert msg.startswith("line 4: [schedule] b_min, b_max:") and "12 > 4" in msg
    with pytest.raises(ConfigError) as err:
        parse_config("[schedule]\nb_max = 4\nb_min = 12\n")
    assert err.value.errors[0].startswith("line 3: [schedule]")
    with pytest.raises(ValueError):
        ScheduleSpec(b_min=12, b_max=4)
    assert parse_config("[schedule]\nb_min = 12\n").run.schedule.b_min == 12


def test_isotropic_quadratic_accepted_up_to_a_million():
    spec = parse_config("[objective]\nkind = quadratic-isotropic\nd = 1000000\n")
    assert spec.run.objective.d == 10**6
    with pytest.raises(ConfigError):
        parse_config("[objective]\nd = 1000001\n")


def test_unknown_key_and_section():
    with pytest.raises(ConfigError) as err:
        parse_config("[objective]\nwat = 1\n")
    assert "unknown key" in err.value.errors[0]
    with pytest.raises(ConfigError) as err:
        parse_config("[mystery]\nx = 1\n")
    assert "unknown section" in err.value.errors[0]


def test_config_round_trip_is_identity():
    spec = parse_config(FULL)
    assert parse_config(format_config(spec)) == spec
    # and again through another cycle
    text = format_config(spec)
    assert format_config(parse_config(text)) == text


def test_defaults_table_lists_every_key():
    table = defaults_table()
    for key in ("tau = 100", "b_pre = 32", "b0 = 8", "p = 2.0", "gamma = 0.5"):
        assert key in table


def test_emit_summary_ratios():
    base = RunConfig(
        objective=ObjectiveSpec(kind="quadratic-isotropic", d=4, lam=1.0),
        oracle=OracleSpec(kind="gaussian", sigma=0.2),
        schedule=ScheduleSpec(kind="fixed", bits=32),
        W=2,
        T=10,
        eta=0.1,
    )
    d, b_pre = 4, 32
    t32 = run(base)
    t4 = run(
        RunConfig(
            objective=base.objective,
            oracle=base.oracle,
            schedule=ScheduleSpec(kind="fixed", bits=4),
            W=2,
            T=10,
            eta=0.1,
        )
    )
    tsign = run(
        RunConfig(
            objective=base.objective,
            oracle=base.oracle,
            schedule=ScheduleSpec(kind="sign"),
            W=2,
            T=10,
            eta=0.1,
        )
    )
    tdyn = run(
        RunConfig(
            objective=base.objective,
            oracle=base.oracle,
            schedule=ScheduleSpec(kind="dynamic", epsilon=0.1, tau=2, b0=8),
            W=2,
            T=10,
            eta=0.1,
        )
    )
    text = emit_summary([t32, t4, tsign, tdyn], ["b32", "b4", "sign", "dynamic"])
    lines = text.strip().split("\n")
    assert lines[0] == "schedule,final_loss,final_gap,cum_bits,bits_vs_32bit_ratio"
    ratios = {ln.split(",")[0]: float(ln.split(",")[4]) for ln in lines[1:]}
    assert ratios["b32"] == 1.0
    assert ratios["b4"] == pytest.approx((4 * d + b_pre) / (32 * d + b_pre), rel=1e-12)
    assert ratios["sign"] < ratios["dynamic"] < ratios["b32"]


def test_run_experiment_writes_reproducible_artifacts(tmp_path):
    spec = parse_config(MINIMAL)
    code = run_experiment(spec, tmp_path / "out", config_text=MINIMAL, command="test")
    assert code == EXIT_OK
    out = tmp_path / "out"
    assert (out / "config.cfg").read_text() == MINIMAL
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "dqsim" and "version" in manifest
    assert manifest["seed"] == spec.run.seed
    assert manifest["stream_format"] == STREAM_FORMAT == 1
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = manifest["blas"]
    assert (blas["name"], blas["version"]) == (build.get("name"), build.get("version"))
    assert blas["kernel"] is None or (isinstance(blas["kernel"], str) and blas["kernel"])
    assert manifest["platform"] == platform.platform()
    trace = json.loads((out / "trace.json").read_text())
    assert trace["config"]["seed"] == spec.run.seed
    csv_text = (out / "trace.csv").read_text()
    assert csv_text.startswith("t,loss,grad_norm,gbar,bits,round_bits,cum_bits\n")
    # artifacts alone are enough to replay bit-identically
    cfg = RunConfig.from_dict(trace["config"])
    again = run(cfg)
    assert [float(v) for v in again.loss] == trace["trace"]["loss"]


def test_manifest_blas_fields_are_null_when_unreadable(tmp_path, monkeypatch):
    def unreadable(*args, **kwargs):
        raise OSError("not available")

    monkeypatch.setattr(np, "show_config", unreadable)
    monkeypatch.setattr(ctypes, "CDLL", unreadable)
    code = run_experiment(parse_config(MINIMAL), tmp_path / "out", command="test")
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["blas"] == {"name": None, "version": None, "kernel": None}


def test_comparison_dynamic_to_fixed(tmp_path):
    spec = parse_config(FULL)
    summary = run_comparison(spec)
    assert summary.n == 4
    assert summary.fixed_bits == [5, 5, 5, 5]
    stats = summary.to_dict()
    assert 0 < stats["win_fraction"] <= 1
    code = run_experiment(spec, tmp_path / "cmp", config_text=FULL, command="t")
    assert code == EXIT_OK
    assert (tmp_path / "cmp" / "compare.json").is_file()
    assert (tmp_path / "cmp" / "summary.csv").read_text().startswith("schedule,")


def test_sweep_writes_per_entry_traces(tmp_path):
    text = MINIMAL + "\n[experiment]\nkind = sweep\nsweep_bits = [2, 3]\n"
    spec = parse_config(text)
    code = run_experiment(spec, tmp_path / "sweep", config_text=text, command="t")
    assert code == EXIT_OK
    assert (tmp_path / "sweep" / "b2" / "trace.csv").is_file()
    assert (tmp_path / "sweep" / "b3" / "trace.csv").is_file()
    summary = (tmp_path / "sweep" / "summary.csv").read_text()
    assert summary.count("\n") == 3


def test_main_exit_codes(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", "x"]) == EXIT_USAGE
    bad = tmp_path / "bad.cfg"
    bad.write_text("[schedule]\ngamma = 7\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "b")]) == EXIT_USAGE
    div = tmp_path / "div.cfg"
    div.write_text("[run]\neta = 3.0\nT = 50\n[schedule]\nkind = fixed\nbits = 32\n")
    assert (
        main(["run", "--config", str(div), "--out", str(tmp_path / "d")])
        == EXIT_DIVERGED
    )
    assert (tmp_path / "d" / "diverged.csv").is_file()


@pytest.mark.parametrize(
    "run_lines, schedule_lines, fixed_code",
    [
        ("", "epsilon = 1e308\n", EXIT_OK),
        ("eta = 1e308\n", "", EXIT_DIVERGED),
        # eta**2 underflows to 0, and the budget divides by it
        ("eta = 1e-200\n", "", EXIT_OK),
    ],
    ids=["epsilon", "eta", "eta-underflow"],
)
def test_budget_out_of_float_range_is_a_usage_error(
    tmp_path, capsys, run_lines, schedule_lines, fixed_code
):
    cfg = tmp_path / "c.cfg"
    text = f"[run]\nT = 5\nW = 2\n{run_lines}[schedule]\nkind = {{}}\n{schedule_lines}"
    cfg.write_text(text.format("dynamic"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "dyn")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: epsilon, gamma, eta: ") and "Traceback" not in err
    assert "quantization budget" in err and err.endswith(", got inf\n")
    # a fixed schedule has no budget: it runs, or diverges at a huge eta
    cfg.write_text(text.format("fixed"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "fixed")]) == fixed_code


@pytest.mark.parametrize("b_pre", [32, 64])
@pytest.mark.parametrize("schedule", ["fixed", "sign"])
@pytest.mark.parametrize(
    "section",
    ["[oracle]\nsigma = 1e308\n", "[objective]\nkind = quadratic\nL = 1e308\n"],
    ids=["sigma", "L"],
)
def test_gradient_beyond_the_wire_is_a_divergence(tmp_path, capsys, section, schedule, b_pre):
    cfg = tmp_path / "c.cfg"
    run_lines = f"[run]\nT = 5\nW = 2\nb_pre = {b_pre}\n"
    cfg.write_text(f"{section}{run_lines}[schedule]\nkind = {schedule}\n")
    # the divergence exit prints its one error line and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err == "error: gradient norm overflows the wire precision at iteration 0\n"
    assert (tmp_path / "o" / "diverged.csv").is_file()
    assert json.loads((tmp_path / "o" / "diverged.json").read_text())["final"]["diverged"]


def test_main_verify_exit_codes(monkeypatch, tmp_path):
    assert main(["verify", "schedule", "--out", str(tmp_path / "v")]) == EXIT_OK
    assert (tmp_path / "v" / "verify.json").is_file()

    import dqsim.verify as verify_mod
    from dqsim.verify import VerifyResult

    def failing(seed=0):
        return VerifyResult("schedule", passed=False, lines=["[FAIL] forced"])

    monkeypatch.setitem(verify_mod.VERIFIERS, "schedule", failing)
    monkeypatch.setattr("dqsim.cli.VERIFIERS", verify_mod.VERIFIERS)
    assert main(["verify", "schedule"]) == EXIT_VERIFY_FAILED


def test_main_seed_and_format_overrides(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "o"
    assert (
        main(
            [
                "run",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--seed",
                "9",
                "--format",
                "json",
            ]
        )
        == EXIT_OK
    )
    assert not (out / "trace.csv").exists()
    trace = json.loads((out / "trace.json").read_text())
    assert trace["config"]["seed"] == 9
    assert main(["run", "--config", str(cfg), "--out", str(out), "--format", "tsv"]) == 1


def test_verb_kind_mismatch_rejected(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL + "\n[experiment]\nkind = sweep\n")
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1


def test_seed_range_flag(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        MINIMAL + "\n[experiment]\nkind = compare\n\n[run]\nT = 10\nW = 2\n"
    )
    out = tmp_path / "cc"
    assert (
        main(["compare", "--config", str(cfg), "--out", str(out), "--seeds", "0..2"])
        == EXIT_OK
    )
    stats = json.loads((out / "compare.json").read_text())
    assert stats["n_seeds"] == 3
