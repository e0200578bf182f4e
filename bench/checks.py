"""Checks on the workloads' outputs.

Each check recomputes what it can independently of the code under test, or
tests a property the paper proves, and returns a list of failure messages:
empty when the outputs pass.  Nothing is compared with a stored copy of an
earlier run's output.
"""

from __future__ import annotations

import math

import numpy as np

from dqsim.sim import ReplayMismatchError, replay


def bit_accounting(trace) -> list[str]:
    """cum_bits must be the running sum of W * (d * b_t + b_pre), recomputed
    from the bits column, so cum_bits[-1] = W * (d * sum(b_t) + T * b_pre)."""
    cfg = trace.config
    W, b_pre, T = cfg.W, cfg.b_pre, trace.t.size
    d = trace.x_final.size
    bits = trace.bits.astype(np.int64)
    expected_total = W * (d * int(bits.sum()) + T * b_pre)
    failures = []
    if trace.cum_bits.size != T or int(trace.cum_bits[-1]) != expected_total:
        failures.append(
            f"seed {cfg.seed}: cum_bits[-1] = {int(trace.cum_bits[-1])}, "
            f"expected W*(d*sum(b)+T*b_pre) = {expected_total}"
        )
    elif not np.array_equal(trace.cum_bits, np.cumsum(W * (d * bits + b_pre))):
        failures.append(f"seed {cfg.seed}: cum_bits is not the running sum of frame bits")
    return failures


def replays(trace) -> list[str]:
    """A finished run re-run from its config reproduces it bit for bit."""
    try:
        replay(trace)
    except ReplayMismatchError as exc:
        return [f"seed {trace.config.seed}: {exc}"]
    return []


def paired_compare(fixed: list, dynamic: list) -> list[str]:
    """Seed-paired fixed-6 and dynamic arms at one quantization budget.

    In every pair the dynamic arm spends fewer bits (Theorem 2's ordering),
    and over the pairs its mean final loss is not above fixed-6's by more
    than 3 standard errors of the paired difference.
    """
    failures = []
    for f, g in zip(fixed, dynamic):
        if g.total_bits >= f.total_bits:
            failures.append(
                f"seed {f.config.seed}: dynamic arm spent {g.total_bits} bits, "
                f"fixed-6 spent {f.total_bits}"
            )
    diff = np.array([g.final_loss - f.final_loss for f, g in zip(fixed, dynamic)])
    if diff.size < 2:
        failures.append(f"need at least 2 pairs for a standard error, got {diff.size}")
        return failures
    se = float(diff.std(ddof=1)) / math.sqrt(diff.size)
    if float(diff.mean()) > 3.0 * se:
        failures.append(
            f"dynamic arm's mean final loss exceeds fixed-6's by {diff.mean():.3e}, "
            f"more than 3 SE = {3.0 * se:.3e} over {diff.size} pairs"
        )
    return failures


def logistic_final_loss(trace, X: np.ndarray, y: np.ndarray, ridge: float) -> list[str]:
    """final_loss equals mean log(1 + exp(-y x_i'x)) + ridge/2 |x|^2 at x_final,
    evaluated here in its own stable form, and lies below the initial loss."""
    x = trace.x_final
    margins = y * (X @ x)
    data = np.log1p(np.exp(-np.abs(margins))) + np.maximum(-margins, 0.0)
    expected = float(data.mean()) + 0.5 * ridge * float(x @ x)
    failures = []
    if not math.isclose(trace.final_loss, expected, rel_tol=1e-10, abs_tol=0.0):
        failures.append(
            f"seed {trace.config.seed}: final_loss {trace.final_loss!r}, "
            f"recomputed {expected!r}"
        )
    if not trace.final_loss < float(trace.loss[0]):
        failures.append(
            f"seed {trace.config.seed}: final loss {trace.final_loss} is not below "
            f"the initial loss {float(trace.loss[0])}"
        )
    return failures


def isotropic_tightness(seed: int, report) -> list[str]:
    """On an isotropic quadratic the Theorem 1 bound equals Theorem 3's exact
    error at the variance ceiling, at every horizon (the tightness case)."""
    bound, exact = report.theorem1_bound_series, report.theorem3_exact_series
    if bound is None or exact is None:
        return [f"seed {seed}: the theory report lacks a bound or exact series"]
    if bound.shape != exact.shape:
        return [f"seed {seed}: bound and exact series differ in length"]
    if not np.allclose(bound, exact, rtol=1e-9, atol=0.0):
        worst = float(np.max(np.abs(bound / exact - 1.0)))
        return [f"seed {seed}: bound and exact series differ by {worst:.3e} relative"]
    return []


def gap_within_bound(gaps, bounds) -> list[str]:
    """Over the seeds run, the mean final gap is at most the mean final bound
    plus 3 standard errors of the gaps."""
    gaps = np.asarray(gaps, dtype=np.float64)
    if gaps.size < 2:
        return [f"need at least 2 runs for a standard error, got {gaps.size}"]
    se = float(gaps.std(ddof=1)) / math.sqrt(gaps.size)
    limit = float(np.mean(bounds)) + 3.0 * se
    if float(gaps.mean()) > limit:
        return [f"mean final gap {gaps.mean():.6g} exceeds bound + 3 SE = {limit:.6g}"]
    return []
