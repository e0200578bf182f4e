"""Closed-form oracles: bound series, exact quadratic error, cost bounds."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dqsim import sim
from dqsim.objective import QuadraticObjective
from dqsim.theory import (
    am_alpha,
    dq_total_cost_bound,
    fixed_total_cost_bound,
    gm_alpha,
    lemma1_mc_check,
    quantization_noise_covariance_trace,
    theorem1_bound,
    theorem1_bound_from_noise,
    theorem3_exact_isotropic,
    theorem3_exact_series,
)


# ---------------------------------------------------------------------------
# convergence bound series
# ---------------------------------------------------------------------------


def test_pure_linear_rate_when_noiseless():
    series = theorem1_bound_from_noise(
        2.0, L=1.0, eta=0.1, sigma=0.0, W=4, d=8, quant_noise_seq=np.zeros(30), alpha=0.81
    )
    expected = 2.0 * 0.81 ** np.arange(31)
    assert np.allclose(series, expected, rtol=1e-12)


def test_single_step_spot_value():
    # L = d = eta = W = 1, sigma = 0, alpha = 0.5, one step at 2 bits with
    # unit norm statistic: 0.5 * 1 + (1/8) * 1 = 0.625
    series = theorem1_bound(
        1.0, L=1.0, mu=0.5, eta=1.0, sigma=0.0, W=1, d=1, gbar_seq=[1.0], bits_seq=[2]
    )
    assert series[1] == pytest.approx(0.625, rel=1e-15)


def test_bound_series_matches_direct_summation():
    # independent O(T^2) oracle with compensated summation
    rng = np.random.default_rng(0)
    T, L, mu, eta, sigma, W, d = 40, 2.0, 0.5, 0.2, 0.7, 4, 6
    gap = 1.3
    gbar = rng.uniform(0.2, 3.0, size=T)
    bits = rng.integers(2, 9, size=T)
    alpha = 1 - 2 * mu * eta + L * mu * eta**2
    series = theorem1_bound(gap, L, mu, eta, sigma, W, d, gbar, bits)
    c_s = L * eta**2 * sigma**2 / (2 * W)
    c_q = L * d * eta**2 / (8 * W)
    for u in (0, 1, 7, 23, 40):
        direct = alpha**u * gap
        direct += c_s * math.fsum(alpha**k for k in range(u))
        direct += c_q * math.fsum(
            alpha ** (u - 1 - t) * gbar[t] ** 2 / (2 ** (bits[t] - 1) - 1) ** 2
            for t in range(u)
        )
        assert series[u] == pytest.approx(direct, rel=1e-12)


def test_bound_satisfies_one_step_recursion():
    rng = np.random.default_rng(1)
    q = rng.uniform(0, 2, size=25)
    L, eta, sigma, W, d, alpha = 1.5, 0.1, 0.4, 8, 10, 0.9
    series = theorem1_bound_from_noise(3.0, L, eta, sigma, W, d, q, alpha)
    c_s = L * eta**2 * sigma**2 / (2 * W)
    c_q = L * d * eta**2 / (8 * W)
    for u in range(25):
        assert series[u + 1] == pytest.approx(
            alpha * series[u] + c_s + c_q * q[u], rel=1e-14
        )


def test_non_contractive_alpha_is_flagged_but_computed():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series = theorem1_bound(
            1.0, L=1.0, mu=1.0, eta=2.5, sigma=0.0, W=1, d=1,
            gbar_seq=[1.0, 1.0], bits_seq=[4, 4],
        )
    assert any("non-contractive" in str(w.message) for w in caught)
    assert series.size == 3 and np.all(np.isfinite(series))


# ---------------------------------------------------------------------------
# exact quadratic error
# ---------------------------------------------------------------------------


def test_noiseless_exact_error_equals_direct_iteration():
    rng = np.random.default_rng(2)
    d, T, eta = 5, 60, 0.08
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    H = (q * np.linspace(0.5, 3.0, d)) @ q.T
    A = rng.standard_normal(d)
    x0 = rng.standard_normal(d)
    obj = QuadraticObjective(H, A)
    series = theorem3_exact_series(*obj.spectrum(), x0, obj.optimum(), np.zeros(T), eta, T)
    x_star = np.linalg.solve(H, -A)

    def f(x):
        return 0.5 * x @ H @ x + A @ x

    x = x0.copy()
    for u in range(T + 1):
        assert series[u] == pytest.approx(f(x) - f(x_star), rel=1e-10, abs=1e-13)
        x = x - eta * (H @ x + A)


def test_isotropic_form_matches_general_path():
    rng = np.random.default_rng(3)
    d, T, lam, eta = 4, 80, 1.3, 0.12
    traces = rng.uniform(0.1, 2.0, size=T)
    x0 = rng.standard_normal(d)
    gap0 = 0.5 * lam * float(x0 @ x0)
    iso = theorem3_exact_isotropic(lam, gap0, traces, eta)
    dense = QuadraticObjective(lam * np.eye(d))
    gen = theorem3_exact_series(*dense.spectrum(), x0, dense.optimum(), traces / d, eta, T)
    assert np.allclose(gen, iso, rtol=1e-12)
    assert gen[-1] == pytest.approx(iso[-1], rel=1e-12)


def test_exact_error_against_monte_carlo():
    lam, eta, d, T = 1.0, 0.1, 4, 100
    traces = np.full(T, 0.05)
    x0 = np.ones(d)
    exact = theorem3_exact_isotropic(lam, 0.5 * lam * d, traces, eta)[-1]
    rng = np.random.default_rng(4)
    n = 4000
    x = np.tile(x0, (n, 1))
    scale = eta * math.sqrt(traces[0] / d)
    for _ in range(T):
        x = (1 - eta * lam) * x - scale * rng.standard_normal((n, d))
    gaps = 0.5 * lam * np.einsum("ij,ij->i", x, x)
    se = gaps.std(ddof=1) / math.sqrt(n)
    assert abs(gaps.mean() - exact) <= 4 * se


def test_matrix_covariances_accepted():
    rng = np.random.default_rng(5)
    d, T, eta = 3, 20, 0.1
    H = np.diag([1.0, 2.0, 3.0])
    sig = np.stack([np.diag(rng.uniform(0.01, 0.2, size=d)) for _ in range(T)])
    obj = QuadraticObjective(H)
    series = theorem3_exact_series(*obj.spectrum(), np.ones(d), obj.optimum(), sig, eta, T)
    # diagonal covariances in a diagonal basis reduce to d scalar recursions
    manual = np.zeros(T + 1)
    lams = np.diag(H)
    for j in range(d):
        det = lams[j] * 1.0
        noise = 0.0
        manual[0] += 0.5 * det
        r2 = (1 - eta * lams[j]) ** 2
        acc_det, acc_noise = det, 0.0
        for t in range(T):
            acc_noise = r2 * acc_noise + lams[j] * sig[t, j, j]
            acc_det = r2 * acc_det
            manual[t + 1] += 0.5 * acc_det + 0.5 * eta**2 * acc_noise
    assert np.allclose(series, manual, rtol=1e-12)
    # the same H stored as a bare spectrum, whose basis is the standard one
    bare = theorem3_exact_series(lams, None, np.ones(d), np.zeros(d), sig, eta, T)
    assert np.allclose(bare, manual, rtol=1e-12)


def test_exact_series_input_validation():
    eigvals, basis = QuadraticObjective(np.eye(2)).spectrum()
    with pytest.raises(ValueError):
        theorem3_exact_series(eigvals, basis, np.zeros(2), np.zeros(3), np.zeros(5), 0.1, 5)
    with pytest.raises(ValueError):
        theorem3_exact_series(-eigvals, basis, np.zeros(2), np.zeros(2), np.zeros(5), 0.1, 5)
    with pytest.raises(ValueError):
        theorem3_exact_series(eigvals, basis, np.zeros(2), np.zeros(2), np.zeros(4), 0.1, 5)


def _report_config(objective, **kwargs):
    defaults = dict(
        objective=objective,
        oracle=sim.OracleSpec(kind="gaussian", sigma=0.4),
        schedule=sim.ScheduleSpec(kind="dynamic", tau=10, alpha_source="closed_form"),
        W=3,
        T=40,
        eta=0.1,
        x0="gaussian",
        seed=2,
    )
    defaults.update(kwargs)
    return sim.RunConfig(**defaults)


def test_report_exact_series_isotropic_equals_dense_bit_for_bit(monkeypatch):
    for d, lam, x0 in ((1, 1.0, "ones"), (4, 1.0, "gaussian"), (50, 0.7, "gaussian")):
        trace = sim.run(_report_config(sim.ObjectiveSpec(d=d, lam=lam), x0=x0))
        spectral = sim.theory_report_for(trace).theorem3_exact_series
        dense = QuadraticObjective(lam * np.eye(d))
        with monkeypatch.context() as m:
            m.setattr(sim, "build_objective", lambda spec: dense)
            from_dense = sim.theory_report_for(trace).theorem3_exact_series
        assert np.array_equal(spectral, from_dense)


def test_report_exact_series_random_pd_matches_dense_recursion():
    d, eta, sigma, W = 12, 0.1, 0.4, 3
    config = _report_config(sim.ObjectiveSpec(kind="quadratic", d=d, mu=0.5, L=3.0))
    trace = sim.run(config)
    series = sim.theory_report_for(trace).theorem3_exact_series
    H = sim.build_objective(config.objective).H
    # E[u] straight from the definition with dense matrices, no eigenbasis:
    # e_u = rho^u e_0 and M_u = sum_{t<u} c_t rho^(2(u-1-t)) = rho M_{u-1} rho + c_{u-1} I
    c = [
        quantization_noise_covariance_trace(sigma, W, d, float(g), int(b)) / d
        for g, b in zip(trace.gbar, trace.bits)
    ]
    rho = np.eye(d) - eta * H
    e = sim.initial_point(config, d)  # x* = 0 since A = 0
    M = np.zeros((d, d))
    want = [0.5 * e @ H @ e]
    for c_t in c:
        e = rho @ e
        M = rho @ M @ rho + c_t * np.eye(d)
        want.append(0.5 * e @ H @ e + 0.5 * eta**2 * np.trace(M @ H))
    assert np.allclose(series, want, rtol=1e-12, atol=0.0)


def test_large_isotropic_run_and_report_stay_linear_in_d():
    d = 200_000
    config = _report_config(sim.ObjectiveSpec(d=d), W=2, T=3, x0="ones")
    tracemalloc.start()
    try:
        trace = sim.run(config)
        report = sim.theory_report_for(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.theorem3_exact_series.shape == (4,)
    assert np.allclose(report.theorem1_bound_series, report.theorem3_exact_series, rtol=1e-9)
    # a d x d float64 array would take 320 GB; the run holds a few dozen
    # length-d vectors at most
    assert peak < 100 * 8 * d


# ---------------------------------------------------------------------------
# variance ceiling
# ---------------------------------------------------------------------------


def test_covariance_trace_values():
    assert quantization_noise_covariance_trace(0.0, 4, 10, 0.0, 3) == 0.0
    assert quantization_noise_covariance_trace(1.0, 1, 0, 5.0, 3) == 1.0
    expected = 0.25 + 16 * 2.25 / (4 * 4 * 49)  # b=4 -> s=7
    assert quantization_noise_covariance_trace(1.0, 4, 16, 1.5, 4) == pytest.approx(
        expected, rel=1e-15
    )
    with pytest.raises(ValueError):
        quantization_noise_covariance_trace(1.0, 4, 16, 1.5, 1)


def test_ceiling_covariance_makes_bound_tight():
    # the tightness witness: theorem-1 series equals the exact quadratic
    # series once the noise sits at the lemma ceiling
    lam, eta, sigma, W, d, T = 0.8, 0.15, 0.4, 4, 12, 150
    t = np.arange(T)
    gbar = 1.5 * 0.985**t + 0.1
    bits = np.where(t < 70, 3, 5)
    gap0 = 2.4
    bound = theorem1_bound(gap0, lam, lam, eta, sigma, W, d, gbar, bits)
    traces = np.array(
        [
            quantization_noise_covariance_trace(sigma, W, d, g, int(b))
            for g, b in zip(gbar, bits)
        ]
    )
    exact = theorem3_exact_isotropic(lam, gap0, traces, eta)
    rel = np.max(np.abs(exact - bound) / bound)
    assert rel <= 1e-9


# ---------------------------------------------------------------------------
# communication-cost bounds
# ---------------------------------------------------------------------------


def _dual_eval_cost(W, d, T, L, gap, sigma, eps_q_hat, alpha, b_pre, mean):
    # independently arranged evaluation of the same expression
    lead = W * d * T * math.log2(math.sqrt(T * (2 * L * gap + sigma**2) / eps_q_hat))
    return lead + W * T * b_pre + W * T * d + W * T * d / 2 * math.log2(mean)


def test_cost_bound_spot_value_dual_evaluation():
    W, d, T, L, gap, sigma, eps, alpha, b_pre = 8, 10, 100, 1.0, 1.0, 0.0, 1.0, 0.99, 32
    got = dq_total_cost_bound(W, d, T, L, gap, sigma, eps, alpha, b_pre)
    want = _dual_eval_cost(W, d, T, L, gap, sigma, eps, alpha, b_pre, alpha ** 49.5)
    assert got == pytest.approx(want, rel=1e-12)
    got_fx = fixed_total_cost_bound(W, d, T, L, gap, sigma, eps, alpha, b_pre)
    am = (1 - alpha**T) / (T * (1 - alpha))
    want_fx = _dual_eval_cost(W, d, T, L, gap, sigma, eps, alpha, b_pre, am)
    assert got_fx == pytest.approx(want_fx, rel=1e-12)
    assert got < got_fx


def test_cost_bounds_equal_at_single_step():
    args = dict(W=4, d=8, T=1, L=1.0, f0_gap=1.0, sigma=0.5, eps_q_hat=2.0, alpha=0.7)
    assert dq_total_cost_bound(**args) == fixed_total_cost_bound(**args)


def test_cost_bounds_converge_in_the_alpha_to_one_limit():
    args = dict(W=4, d=8, T=50, L=1.0, f0_gap=1.0, sigma=0.5, eps_q_hat=2.0)
    dq = dq_total_cost_bound(alpha=1 - 1e-9, **args)
    fx = fixed_total_cost_bound(alpha=1 - 1e-9, **args)
    assert abs(dq - fx) / fx < 1e-6


def test_small_grid_ordering():
    assert am_alpha(0.5, 2) == pytest.approx(0.75)
    assert gm_alpha(0.5, 2) == pytest.approx(math.sqrt(0.5))
    for alpha in np.linspace(0.05, 0.995, 20):
        for T in (2, 10, 100):
            dq = dq_total_cost_bound(2, 4, T, 1.0, 1.0, 0.3, 1.0, float(alpha))
            fx = fixed_total_cost_bound(2, 4, T, 1.0, 1.0, 0.3, 1.0, float(alpha))
            assert dq < fx


def test_cost_bound_alpha_domain():
    with pytest.raises(ValueError):
        dq_total_cost_bound(1, 1, 10, 1.0, 1.0, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# aggregated-gradient Monte Carlo
# ---------------------------------------------------------------------------


def test_lemma1_check_near_machine_precision_at_32_bits():
    rng = np.random.default_rng(6)
    gs = rng.standard_normal((4, 6))
    rep = lemma1_mc_check(gs, bits=32, n_draws=20_000, rng=rng)
    assert rep.passed
    assert rep.empirical_sqnorm == pytest.approx(rep.bound_sqnorm, rel=1e-9)


def test_lemma1_check_single_worker_single_vector():
    rng = np.random.default_rng(7)
    g = rng.standard_normal(8)
    rep = lemma1_mc_check([g], bits=3, n_draws=50_000, rng=rng)
    assert rep.passed
    # bound reduces to ||g||^2 + d ||g||^2 / (4 s^2)
    s = 3
    want = float(g @ g) + 8 * np.linalg.norm(g) ** 2 / (4 * s * s)
    assert rep.bound_sqnorm == pytest.approx(want, rel=1e-12)


def test_lemma1_check_random_instance():
    rng = np.random.default_rng(8)
    gs = rng.standard_normal((8, 16))
    rep = lemma1_mc_check(gs, bits=3, n_draws=50_000, rng=rng)
    assert rep.passed, rep.summary()


def test_lemma1_check_input_validation():
    g = np.array([1.0])
    with pytest.raises(ValueError):
        lemma1_mc_check([g], bits=2, n_draws=100, rng=np.random.default_rng(0))
