"""Bit allocation: contraction estimates, the dynamic rule, budget audits."""

import math

import numpy as np
import pytest

from dqsim.schedule import (
    ALPHA_CEIL,
    ALPHA_FLOOR,
    DynamicSchedule,
    FixedSchedule,
    SignSchedule,
    alpha_closed_form,
    alpha_estimate,
    budget_satisfaction,
    continuous_bits,
    fixed_bits_for_budget,
    quantization_budget,
)
from dqsim.sim import ScheduleSpec, SpecError
from dqsim.theory import am_alpha, gm_alpha


def make_schedule(T=100, eps_q_hat=1.0, alpha=0.99, **spec):
    """A dynamic schedule whose closed-form alpha is the given alpha."""
    return DynamicSchedule(ScheduleSpec(**spec), T, eps_q_hat, alpha)


def width_at(sched, t, gbar):
    """The width a refresh at round t picks for norm gbar (tau = 1)."""
    return sched.update(t - 1, 1.0, gbar)


# ---------------------------------------------------------------------------
# contraction factor
# ---------------------------------------------------------------------------


def test_alpha_closed_form_values():
    assert alpha_closed_form(1.0, 1.0, 1.0) == 0.0
    assert alpha_closed_form(0.1, 4.0, 1.0) == pytest.approx(0.84, rel=1e-15)


def test_alpha_decreases_with_eta_below_inverse_L():
    L, mu = 4.0, 1.0
    etas = np.linspace(0.01, 1.0 / L, 40)
    alphas = [alpha_closed_form(float(e), L, mu) for e in etas]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))


def test_alpha_estimate_examples():
    assert alpha_estimate(1.0, 1.0, 5) == ALPHA_CEIL
    assert alpha_estimate(1.0, 0.25, 2) == pytest.approx(0.5, rel=1e-12)
    assert alpha_estimate(1.0, -0.5, 3) == ALPHA_FLOOR
    with pytest.raises(ValueError):
        alpha_estimate(1.0, 0.5, 0)
    with pytest.raises(ValueError):
        alpha_estimate(0.0, 0.5, 1)


def test_alpha_estimate_converges_on_exact_descent():
    # independent descent oracle: x <- (1 - eta*lam) x on an isotropic bowl
    lam, eta, d = 2.0, 0.15, 6
    alpha = alpha_closed_form(eta, lam, lam)
    x = np.ones(d)
    f0 = 0.5 * lam * float(x @ x)
    for t in range(1, 51):
        x = x - eta * lam * x
        ft = 0.5 * lam * float(x @ x)
        if t == 50:
            est = alpha_estimate(f0, ft, t)
            assert abs(est - alpha) / alpha < 0.01


# ---------------------------------------------------------------------------
# the dynamic rule
# ---------------------------------------------------------------------------


def test_constant_alpha_gives_constant_bits():
    vals = [continuous_bits(t, 50, 2.0, 1.0, 3.0) for t in range(50)]
    assert all(v == vals[0] for v in vals)


def test_bits_nondecreasing_in_t_for_fixed_gbar():
    vals = [continuous_bits(t, 50, 2.0, 0.9, 3.0) for t in range(50)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_hand_evaluated_spot_value():
    # T=100, budget 1, alpha=0.99, gbar=1 at the final step:
    # log2(sqrt(100) * 1 * 1 + 1) + 1 = log2(11) + 1
    sched = make_schedule(tau=1, alpha_source="closed_form")
    expected = math.log2(11.0) + 1.0
    assert continuous_bits(99, 100, 1.0, 0.99, 1.0) == pytest.approx(expected, rel=1e-15)
    assert width_at(sched, 99, 1.0) == math.floor(expected + 0.5) == 4


def test_dynamic_width_clamps_and_degenerate_inputs():
    sched = make_schedule(tau=1, b_min=3, b_max=6, alpha_source="closed_form")
    assert width_at(sched, 1, 0.0) == 3
    assert width_at(sched, 99, 1e12) == 6
    # weight underflow pushes the rule to the floor
    sched = make_schedule(tau=1, b_min=3, b_max=6, alpha=1e-9, alpha_source="closed_form")
    assert width_at(sched, 1, 1.0) == 3


def test_monotone_response_of_continuous_rule():
    rng = np.random.default_rng(0)
    for _ in range(200):
        T = int(rng.integers(2, 200))
        t = int(rng.integers(0, T))
        alpha = float(rng.uniform(0.1, 0.999))
        g = float(rng.uniform(0.01, 10))
        eps = float(rng.uniform(0.01, 10))
        b = continuous_bits(t, T, eps, alpha, g)
        assert continuous_bits(t, T, eps, alpha, g * 1.5) >= b
        assert continuous_bits(t, T, eps * 2, alpha, g) <= b


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------


def test_budget_split_examples():
    # W=8, d=10, eta=0.1, L=1: eps_q_hat = 640 * (1 - gamma) * epsilon
    spec = ScheduleSpec(epsilon=0.1, gamma=0.0)
    assert quantization_budget(spec, 8, 10, 0.1, 1.0) == pytest.approx(64.0, rel=1e-12)
    spec = ScheduleSpec(epsilon=0.1, gamma=0.5)
    assert quantization_budget(spec, 8, 10, 0.1, 1.0) == pytest.approx(32.0, rel=1e-12)
    assert quantization_budget(ScheduleSpec(eps_q_hat=32.0), 8, 10, 0.1, 1.0) == 32.0


def test_asymptotic_budget_split():
    # choosing gamma = L eta^2 sigma^2 / (2 W (1-alpha) epsilon) makes the
    # quantization budget equal the large-horizon form: epsilon minus the
    # sampling-noise floor
    L, eta, sigma, W, d, alpha, eps = 1.0, 0.1, 2.0, 8, 10, 0.84, 0.1
    gamma = L * eta**2 * sigma**2 / (2 * W * (1 - alpha)) / eps
    budget = quantization_budget(ScheduleSpec(epsilon=eps, gamma=gamma), W, d, eta, L)
    noise_floor = L * eta**2 * sigma**2 / (2.0 * W * (1.0 - alpha))
    eps_q = budget * L * d * eta**2 / (8.0 * W)
    assert eps_q == pytest.approx(eps - noise_floor, rel=1e-12)


def test_budget_satisfaction_trivial_values():
    assert budget_satisfaction([2, 2], [0.0, 0.0], 0.9) == 0.0
    assert budget_satisfaction([2], [1.0], 0.37, T=1) == 1.0
    with pytest.raises(ValueError):
        budget_satisfaction([1, 2], [1.0, 1.0], 0.9)
    with pytest.raises(ValueError):
        budget_satisfaction([2, 2], [1.0], 0.9)


def test_continuous_rule_recovers_budget_exactly():
    rng = np.random.default_rng(2)
    for _ in range(50):
        T = int(rng.integers(2, 120))
        alpha = float(rng.uniform(0.6, 0.999))
        gbar = rng.uniform(0.3, 5.0, size=T)
        eps_q_hat = float(rng.uniform(0.1, 50.0))
        cont = np.array(
            [continuous_bits(t, T, eps_q_hat, alpha, gbar[t]) for t in range(T)]
        )
        assert budget_satisfaction(cont, gbar, alpha) == pytest.approx(
            eps_q_hat, rel=1e-9
        )


def test_fixed_bits_for_budget_is_minimal():
    rng = np.random.default_rng(3)
    for _ in range(30):
        T = int(rng.integers(5, 100))
        alpha = float(rng.uniform(0.8, 0.999))
        gbar = rng.uniform(0.5, 4.0, size=T)
        eps_q_hat = float(rng.uniform(0.5, 20.0))
        b = fixed_bits_for_budget(gbar, alpha, eps_q_hat)
        assert budget_satisfaction([b] * T, gbar, alpha) <= eps_q_hat * (1 + 1e-9)
        if b > 2:
            assert budget_satisfaction([b - 1] * T, gbar, alpha) > eps_q_hat


def test_am_gm_ordering():
    for alpha in np.linspace(0.01, 0.999, 25):
        for T in (2, 3, 10, 100):
            assert gm_alpha(float(alpha), T) < am_alpha(float(alpha), T)
    assert gm_alpha(0.5, 1) == am_alpha(0.5, 1) == 1.0
    assert am_alpha(0.5, 2) == pytest.approx(0.75)
    assert gm_alpha(0.5, 2) == pytest.approx(math.sqrt(0.5))


# ---------------------------------------------------------------------------
# schedule objects
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "key, value",
    [("gamma", 1.0), ("gamma", 1.5), ("b_min", 1), ("b_max", 33), ("eps_q_hat", 0.0), ("tau", 0)],
)
def test_schedule_spec_rejects_bad_values(key, value):
    with pytest.raises(SpecError):
        ScheduleSpec(**{key: value})


def test_fixed_and_sign_schedules_are_constant():
    sched = FixedSchedule(6)
    assert sched.start(1.0) == 6
    assert all(sched.update(t, 0.5, 1.0) == 6 for t in range(5))
    with pytest.raises(ValueError):
        FixedSchedule(33)
    sign = SignSchedule()
    assert sign.start(1.0) == 1 and sign.update(0, 1.0, 1.0) == 1


def test_dynamic_schedule_holds_between_refreshes():
    sched = make_schedule(
        T=30, tau=10, b0=5, eps_q_hat=4.0, alpha=0.84, alpha_source="closed_form"
    )
    bits = [sched.start(4.0)]
    for t in range(29):
        bits.append(sched.update(t, 4.0 * 0.9**t, 2.0))
    # width can only change at rounds 10 and 20
    changes = [t for t in range(1, 30) if bits[t] != bits[t - 1]]
    assert set(changes) <= {10, 20}
    assert bits[:10] == [5] * 10
    assert all(2 <= b <= 32 for b in bits)


def test_dynamic_schedule_starts_at_b0_clamped():
    assert make_schedule(b0=2, b_min=4, b_max=6).start(1.0) == 4
    assert make_schedule(b0=9, b_min=4, b_max=6).start(1.0) == 6


def test_dynamic_schedule_never_emits_one_bit():
    sched = make_schedule(T=40, tau=1, eps_q_hat=1e9, b0=2, alpha=0.84)
    bits = [sched.start(1.0)]
    for t in range(39):
        bits.append(sched.update(t, 1.0, 1e-9))
    assert min(bits) >= 2


def test_dynamic_schedule_estimates_alpha_at_refresh():
    sched = make_schedule(T=40, tau=10, b0=4, eps_q_hat=4.0, alpha=0.84, alpha_source="estimate")
    sched.start(8.0)
    # feed a loss history contracting at exactly 0.8 per step
    for t in range(39):
        sched.update(t, 8.0 * 0.8**t, 1.5)
    assert sched.alpha == pytest.approx(0.8, rel=1e-9)


def test_dynamic_schedule_keeps_the_closed_form_alpha():
    sched = make_schedule(T=40, tau=10, eps_q_hat=4.0, alpha=1.5, alpha_source="closed_form")
    assert sched.alpha == ALPHA_CEIL
    sched.start(8.0)
    for t in range(39):
        sched.update(t, 8.0 * 0.8**t, 1.5)
    assert sched.alpha == ALPHA_CEIL
