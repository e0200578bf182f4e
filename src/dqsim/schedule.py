"""Per-iteration bit allocation for quantized distributed SGD.

Fixed, ternary (2-bit), and sign (1-bit) baselines share a trivial constant
rule.  The dynamic rule spends its bit budget where it matters: given a
target residual error, a contraction-factor estimate alpha, and the latest
root-mean-square gradient norm, the closed-form allocation is

    b_t = log2( sqrt(T / eps_q_hat) * alpha**((T-1-t)/2) * gbar_t + 1 ) + 1,

rounded half-up and clamped.  quantization_budget derives eps_q_hat from a
schedule's (epsilon, gamma) split.  Substituting the unrounded values back
into the recency-weighted budget sum recovers eps_q_hat exactly, which is the
stationarity property budget_satisfaction audits; fixed_bits_for_budget finds
the narrowest constant width that meets the same budget.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ALPHA_FLOOR",
    "ALPHA_CEIL",
    "FixedSchedule",
    "SignSchedule",
    "DynamicSchedule",
    "alpha_closed_form",
    "alpha_estimate",
    "continuous_bits",
    "quantization_budget",
    "budget_satisfaction",
    "fixed_bits_for_budget",
]

ALPHA_FLOOR = 1e-6
ALPHA_CEIL = 1.0 - 1e-6


def alpha_closed_form(eta: float, L: float, mu: float) -> float:
    """One-step contraction factor 1 - 2*mu*eta + L*mu*eta**2."""
    if not eta > 0:
        raise ValueError("learning rate must be positive")
    return 1.0 - 2.0 * mu * eta + L * mu * eta * eta


def _clamp_alpha(alpha: float) -> float:
    return min(max(alpha, ALPHA_FLOOR), ALPHA_CEIL)


def alpha_estimate(f0: float, ft: float, t: int) -> float:
    """Practical contraction estimate (ft/f0)**(1/t), clamped to (0, 1).

    Valid when the optimal value is close to zero; a non-decreasing loss
    saturates at the ceiling rather than reporting expansion.
    """
    if t < 1:
        raise ValueError("alpha estimation needs t >= 1")
    if not f0 > 0:
        raise ValueError("initial loss must be positive")
    if ft >= f0:
        return ALPHA_CEIL
    if ft <= 0:
        return ALPHA_FLOOR
    return _clamp_alpha((ft / f0) ** (1.0 / t))


def continuous_bits(t: int, T: int, eps_q_hat: float, alpha: float, gbar: float) -> float:
    """Unrounded dynamic allocation; -inf-safe only for gbar > 0."""
    if not 0 <= t < T:
        raise ValueError(f"iteration {t} outside [0, {T})")
    if not eps_q_hat > 0:
        raise ValueError("budget must be positive")
    if gbar < 0:
        raise ValueError("gbar must be nonnegative")
    weight = alpha ** ((T - 1 - t) / 2.0)
    return math.log2(math.sqrt(T / eps_q_hat) * weight * gbar + 1.0) + 1.0


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def quantization_budget(spec, W: int, d: int, eta: float, L: float) -> float:
    """The dynamic rule's budget eps_q_hat for a ScheduleSpec.

    spec.eps_q_hat when set; else eps_q = (1 - gamma) * epsilon, the
    residual-error budget assigned to quantization, in the units the bit
    formula consumes: 8 W eps_q / (L d eta^2).  Where eta**2 leaves float
    range, Python's float power raises OverflowError, or the division
    ZeroDivisionError.
    """
    if spec.eps_q_hat is not None:
        return spec.eps_q_hat
    return 8.0 * W / (L * d * eta**2) * ((1.0 - spec.gamma) * spec.epsilon)


def budget_satisfaction(
    bits_seq, gbar_seq, alpha: float, T: int | None = None
) -> float:
    """Recency-weighted quantization-noise sum realized by a bit sequence.

    Returns sum_t alpha**(T-1-t) * gbar_t**2 / (2**(b_t - 1) - 1)**2 so the
    caller can compare it against eps_q_hat.  Accepts fractional bit values
    (for auditing the continuous rule) as long as every entry exceeds 1.
    """
    bits = np.asarray(bits_seq, dtype=np.float64)
    gbar = np.asarray(gbar_seq, dtype=np.float64)
    if bits.shape != gbar.shape or bits.ndim != 1:
        raise ValueError("bit and gbar sequences must be 1-D and equally long")
    if T is not None and bits.size != T:
        raise ValueError(f"expected length {T}, got {bits.size}")
    if np.any(bits <= 1):
        raise ValueError("budget accounting requires bits > 1 everywhere")
    n = bits.size
    s = np.exp2(bits - 1.0) - 1.0
    weights = alpha ** np.arange(n - 1, -1, -1, dtype=np.float64)
    return float(np.sum(weights * gbar**2 / s**2))


def fixed_bits_for_budget(gbar_seq, alpha: float, eps_q_hat: float) -> int:
    """Smallest constant bit width whose realized noise sum meets the budget.

    Solves the same constraint the dynamic rule satisfies with equality, but
    with one shared width: s >= sqrt(sum_t alpha**(T-1-t) gbar_t**2 / budget).
    """
    gbar = np.asarray(gbar_seq, dtype=np.float64)
    n = gbar.size
    weights = alpha ** np.arange(n - 1, -1, -1, dtype=np.float64)
    s_needed = math.sqrt(float(np.sum(weights * gbar**2)) / eps_q_hat)
    b = math.ceil(math.log2(s_needed + 1.0) + 1.0 - 1e-12)
    return min(max(b, 2), 32)


class FixedSchedule:
    """Constant width; also covers the ternary (2-bit) baseline."""

    def __init__(self, bits: int):
        if not 2 <= bits <= 32:
            raise ValueError(f"fixed width must be in [2, 32], got {bits}")
        self.bits = bits

    def start(self, f0: float) -> int:
        return self.bits

    def update(self, t: int, loss_t: float, gbar_t: float) -> int:
        return self.bits


class SignSchedule:
    """1 bit per coordinate every round (handled by the sign codec)."""

    def start(self, f0: float) -> int:
        return 1

    def update(self, t: int, loss_t: float, gbar_t: float) -> int:
        return 1


class DynamicSchedule:
    """Budget-driven allocation with a tau-periodic refresh.

    spec is a ScheduleSpec; its tau, b0, b_min, b_max and alpha_source are
    read from it.  alpha starts at the clamped closed form given.  The width
    starts at b0 clamped into [b_min, b_max].  Every tau rounds the
    contraction estimate (under alpha_source "estimate") and the norm
    statistic are re-read and the width recomputed; between refreshes the
    width is held.  The refresh consumes the most recent completed round's
    statistics.
    """

    def __init__(self, spec, T: int, eps_q_hat: float, alpha: float):
        self.spec = spec
        self.T = T
        self.eps_q_hat = eps_q_hat
        self.alpha = _clamp_alpha(alpha)
        self.f0 = math.nan

    def start(self, f0: float) -> int:
        self.f0 = f0
        self._current = min(max(self.spec.b0, self.spec.b_min), self.spec.b_max)
        return self._current

    def update(self, t: int, loss_t: float, gbar_t: float) -> int:
        """Bits for round t+1, given stats observed through round t."""
        spec = self.spec
        t_next = t + 1
        if t_next < self.T and t_next % spec.tau == 0:
            if spec.alpha_source == "estimate" and t >= 1 and self.f0 > 0:
                self.alpha = alpha_estimate(self.f0, loss_t, t)
            if gbar_t <= 0:
                self._current = spec.b_min
            else:
                b = continuous_bits(t_next, self.T, self.eps_q_hat, self.alpha, gbar_t)
                self._current = min(max(_round_half_up(b), spec.b_min), spec.b_max)
        return self._current
