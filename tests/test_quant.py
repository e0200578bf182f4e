"""Quantizer math: stochastic rounding, moments, baselines, norm statistics."""

import math

import numpy as np
import pytest

from dqsim.quant import (
    QuantizerConfig,
    QuantizedGradient,
    dequantize,
    dequantized_draws,
    lp_norm,
    quantize,
    sign_quantize,
    variance_bound,
)
from dqsim.theory import quantization_noise_covariance_trace


def rng_for(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# types and constructors
# ---------------------------------------------------------------------------


def test_quantize_sends_row_norm_within_4_ulp():
    rng = rng_for(0)
    for p in (1.0, 2.0, 3.5, np.inf):
        for d in (1, 7, 1000):
            v = rng.standard_normal(d) * rng.uniform(1e-3, 1e3)
            # b_pre = 64 sends the norm unrounded
            q = quantize(v, QuantizerConfig(bits=4, p=p, b_pre=64), rng)
            # compensated-summation oracle
            if p == np.inf:
                exact = max(abs(x) for x in v)
            else:
                exact = math.fsum(abs(x) ** p for x in v) ** (1.0 / p)
            assert abs(q.norm - exact) <= 4 * np.spacing(exact)
            assert q.norm == lp_norm(v, p)


def test_quantize_rejects_bad_shapes():
    for bad in (np.float64(1.0), np.zeros(0), np.zeros((2, 0)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            quantize(bad, QuantizerConfig(bits=4), rng_for(0))
        with pytest.raises(ValueError):
            sign_quantize(bad)
    with pytest.raises(ValueError):
        quantize(np.array([1.0, np.inf]), QuantizerConfig(bits=4), rng_for(0))
    with pytest.raises(ValueError):
        sign_quantize(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        QuantizerConfig(bits=4, p=0.0)


def test_quantizer_config_levels():
    assert QuantizerConfig(bits=2).levels == 1
    assert QuantizerConfig(bits=3).levels == 3
    assert QuantizerConfig(bits=8).levels == 127
    assert QuantizerConfig(bits=32).levels == 2**31 - 1
    with pytest.raises(ValueError):
        QuantizerConfig(bits=0)
    with pytest.raises(ValueError):
        QuantizerConfig(bits=33)
    with pytest.raises(ValueError):
        QuantizerConfig(bits=4, b_pre=16)
    with pytest.raises(ValueError):
        QuantizerConfig(bits=1).levels


def test_quantized_gradient_validation():
    with pytest.raises(ValueError):
        QuantizedGradient(1.0, np.array([1, -1]), np.array([0, 2]), bits=2)
    with pytest.raises(ValueError):
        QuantizedGradient(-1.0, np.array([1]), np.array([0]), bits=2)
    with pytest.raises(ValueError):
        QuantizedGradient(1.0, np.array([0]), np.array([0]), bits=2)
    q = QuantizedGradient(1.0, np.array([1, -1]), np.array([0, 1]), bits=2)
    assert q.encoded_bits == 2 * 2 + 32


# ---------------------------------------------------------------------------
# quantize / dequantize
# ---------------------------------------------------------------------------


def test_zero_vector_short_circuits():
    q = quantize(np.zeros(3), QuantizerConfig(bits=4), rng_for(1))
    assert q.norm == 0.0
    assert list(q.levels) == [0, 0, 0]
    assert np.array_equal(dequantize(q), np.zeros(3))


def test_two_point_example_probabilities_and_unbiasedness():
    # ratios 0.6 / 0.8 at s = 1: levels are Bernoulli with those rates and
    # the dequantized mean reproduces the input
    g = np.array([0.3, -0.4])
    assert lp_norm(g, 2.0) == 0.5
    cfg = QuantizerConfig(bits=2)
    n = 200_000
    draws = dequantized_draws(g, cfg, rng_for(2), n)
    p_hat = np.mean(draws[:, 0] == 0.5)
    se = math.sqrt(0.6 * 0.4 / n)
    assert abs(p_hat - 0.6) <= 5 * se
    mean = draws.mean(axis=0)
    se_coord = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mean - g) <= 5 * se_coord)


def test_exact_grid_ratios_are_deterministic():
    # ratios {1/3, 1} at s = 3 sit on grid points, so the rounding
    # probability is exactly zero whatever the stream says
    g = np.array([0.25, -0.75])
    cfg = QuantizerConfig(bits=3, p=np.inf)
    for seed in range(25):
        q = quantize(g, cfg, rng_for(seed))
        assert list(q.levels) == [1, 3]
        assert list(q.signs) == [1, -1]


def test_grid_determinism_property():
    # integer-valued coordinates with the max-norm make every ratio l/s exact
    rng = rng_for(3)
    for _ in range(50):
        b = int(rng.integers(2, 9))
        s = 2 ** (b - 1) - 1
        d = int(rng.integers(1, 20))
        levels = rng.integers(0, s + 1, size=d)
        levels[rng.integers(0, d)] = s  # pin the norm to s
        signs = rng.choice([-1.0, 1.0], size=d)
        q = quantize(signs * levels, QuantizerConfig(bits=b, p=np.inf), rng_for(int(rng.integers(1e6))))
        assert np.array_equal(q.levels, levels.astype(np.uint32))


def test_grid_round_trip_is_exact():
    # vectors whose magnitude ratios all lie on the grid reproduce exactly
    rng = rng_for(4)
    for _ in range(50):
        b = int(rng.integers(2, 9))
        s = 2 ** (b - 1) - 1
        d = int(rng.integers(1, 16))
        levels = rng.integers(0, s + 1, size=d)
        levels[rng.integers(0, d)] = s
        signs = rng.choice([-1.0, 1.0], size=d)
        scale = 2.0 ** rng.integers(-8, 9)  # power of two keeps products exact
        values = signs * levels * scale
        q = quantize(values, QuantizerConfig(bits=b, p=np.inf), rng_for(0))
        assert np.array_equal(dequantize(q), values)


def test_dequantize_trivial_cases():
    q = QuantizedGradient(0.0, np.array([1, 1]), np.array([0, 0]), bits=2)
    assert np.array_equal(dequantize(q), [0.0, 0.0])
    q = QuantizedGradient(0.5, np.array([1, -1]), np.array([1, 1]), bits=2)
    assert np.array_equal(dequantize(q), [0.5, -0.5])


def test_quantize_rejects_bad_input():
    with pytest.raises(ValueError):
        quantize(np.array([1.0, np.nan]), QuantizerConfig(bits=2), rng_for(0))
    with pytest.raises(ValueError):
        quantize(np.array([1.0]), QuantizerConfig(bits=1), rng_for(0))


def test_sign_of_zero_is_positive():
    q = quantize(np.array([0.0, 1.0]), QuantizerConfig(bits=2), rng_for(0))
    assert q.signs[0] == 1
    q = sign_quantize(np.array([0.0, -0.0, 1.0]))
    assert q.signs[0] == 1 and q.signs[1] == 1


# ---------------------------------------------------------------------------
# sign codec
# ---------------------------------------------------------------------------


def test_sign_quantize_examples():
    out = dequantize(sign_quantize(np.array([2.0, -2.0])))
    assert np.array_equal(out, [2.0, -2.0])
    out = dequantize(sign_quantize(np.array([3.0, -1.0])))
    assert np.array_equal(out, [2.0, -2.0])


def test_sign_quantize_cost_arithmetic():
    q = sign_quantize(np.ones(10**6))
    assert q.encoded_bits == 10**6 + 32


def test_sign_quantize_zero_vector():
    out = dequantize(sign_quantize(np.zeros(2)))
    assert np.array_equal(out, [0.0, 0.0])


# ---------------------------------------------------------------------------
# variance bound and moments
# ---------------------------------------------------------------------------


def test_variance_bound_values():
    assert variance_bound(QuantizerConfig(bits=2), np.zeros(2)) == 0.0
    g = np.array([0.3, -0.4])  # norm 0.5
    assert variance_bound(QuantizerConfig(bits=2), g) == pytest.approx(0.125, rel=1e-15)


def test_variance_bound_strictly_decreases_in_bits():
    g = np.array([0.3, -0.4, 1.1])
    bounds = [variance_bound(QuantizerConfig(bits=b), g) for b in range(2, 33)]
    assert all(lo > hi for lo, hi in zip(bounds, bounds[1:]))


def test_variance_budget_terms():
    # sampling term sigma**2 / W plus quantization term d gbar**2 / (4 W s**2)
    sampling = quantization_noise_covariance_trace(2.0, 8, 16, 0.0, 4)
    quantization = quantization_noise_covariance_trace(0.0, 8, 16, 1.5, 4)
    assert sampling == pytest.approx(0.5, rel=1e-15)
    assert quantization == pytest.approx(16 * 2.25 / (32 * 49), rel=1e-15)
    assert quantization_noise_covariance_trace(2.0, 8, 16, 1.5, 4) == sampling + quantization
    # quantization term strictly decreasing in the bit width
    terms = [quantization_noise_covariance_trace(0.0, 4, 8, 1.0, b) for b in range(2, 16)]
    assert all(a > b for a, b in zip(terms, terms[1:]))
    with pytest.raises(ValueError):
        quantization_noise_covariance_trace(1.0, 4, 8, 1.0, 1)


@pytest.mark.parametrize("d", [1, 4, 64])
@pytest.mark.parametrize("b", [2, 3, 4, 8])
def test_empirical_variance_within_bound(d, b):
    rng = rng_for(100 * d + b)
    g = rng.standard_normal(d)
    cfg = QuantizerConfig(bits=b, b_pre=64)
    n = 100_000
    draws = dequantized_draws(g, cfg, rng, n)
    err_sq = np.einsum("ij,ij->i", draws - g, draws - g)
    emp = float(err_sq.mean())
    se = float(err_sq.std(ddof=1)) / math.sqrt(n)
    assert emp <= variance_bound(cfg, g) + 5 * se


@pytest.mark.parametrize("d,b", [(1, 2), (4, 3), (64, 2), (16, 8)])
def test_unbiasedness_within_5_se(d, b):
    rng = rng_for(17 * d + b)
    g = rng.standard_normal(d)
    n = 100_000
    draws = dequantized_draws(g, QuantizerConfig(bits=b, b_pre=64), rng, n)
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mean - g) <= 5 * np.maximum(se, 1e-15))


def test_high_precision_fidelity_at_32_bits():
    # any single draw errs by at most one grid step per coordinate, and the
    # average absolute error stays below half a step
    rng = rng_for(7)
    g = rng.standard_normal(32)
    cfg = QuantizerConfig(bits=32, b_pre=64)
    s = cfg.levels
    step = lp_norm(g, 2.0) / s
    draws = dequantized_draws(g, cfg, rng, 2000)
    errs = np.abs(draws - g)
    assert errs.max() <= step * (1 + 1e-12)
    assert errs.mean() <= step / 2


# ---------------------------------------------------------------------------
# norm statistics
# ---------------------------------------------------------------------------


def test_lp_norm_general_orders():
    v = np.array([1.0, -2.0, 2.0])
    assert lp_norm(v, 1) == 5.0
    assert lp_norm(v, 2) == 3.0
    assert lp_norm(v, np.inf) == 2.0


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_array_batch_quantizes_like_its_gradient_vectors(p):
    rng = rng_for(9)
    W, d = 6, 23
    values = rng.standard_normal((W, d)) * rng.uniform(1e-3, 1e3, (W, 1))
    values[2] = 0.0
    values[4] = -np.abs(values[4])
    uniforms = rng.random((W, d))
    for bits, b_pre in ((2, 32), (7, 64), (32, 32)):
        cfg = QuantizerConfig(bits=bits, p=p, b_pre=b_pre)
        got = quantize(values, cfg, uniforms)
        for i, v in enumerate(values):
            want = quantize(v, cfg, uniforms[i])
            assert got.norm[i] == want.norm
            assert np.array_equal(got.signs[i], want.signs)
            assert np.array_equal(got.levels[i], want.levels)
    got = sign_quantize(values, b_pre=64)
    for i, v in enumerate(values):
        want = sign_quantize(v, b_pre=64)
        assert got.norm[i] == want.norm and np.array_equal(got.signs[i], want.signs)
    for bad in (values[None], np.empty((3, 0))):
        with pytest.raises(ValueError):
            quantize(bad, QuantizerConfig(bits=4, p=p), rng)
