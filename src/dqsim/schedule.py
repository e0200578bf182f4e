"""Per-iteration bit allocation for quantized distributed SGD.

Fixed, ternary (2-bit), and sign (1-bit) baselines share a trivial constant
rule.  The dynamic rule spends its bit budget where it matters: given a
target residual error, a contraction-factor estimate alpha, and the latest
root-mean-square gradient norm, the closed-form allocation is

    b_t = log2( sqrt(T / eps_q_hat) * alpha**((T-1-t)/2) * gbar_t + 1 ) + 1,

rounded half-up and clamped.  Substituting the unrounded values back into
the recency-weighted budget sum recovers eps_q_hat exactly, which is the
stationarity property the audit helpers below check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ALPHA_FLOOR",
    "ALPHA_CEIL",
    "SchedulerState",
    "BitSchedule",
    "FixedSchedule",
    "SignSchedule",
    "DynamicSchedule",
    "alpha_closed_form",
    "alpha_estimate",
    "continuous_bits",
    "dq_bits",
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


@dataclass
class SchedulerState:
    """Everything the dynamic rule needs, plus its evolving estimates.

    eps_q = (1 - gamma) * epsilon is the residual-error budget assigned to
    quantization; eps_q_hat = 8 W eps_q / (L d eta^2) is the same budget in
    the units the bit formula consumes.  Pass eps_q_hat directly to bypass
    the (epsilon, gamma) split.
    """

    T: int
    W: int
    d: int
    eta: float
    L: float
    mu: float
    epsilon: float = 0.1
    gamma: float = 0.5
    tau: int = 100
    b_min: int = 2
    b_max: int = 32
    b0: int = 8
    alpha_source: str = "estimate"  # "estimate" | "closed_form"
    eps_q_hat: float | None = None
    eps_q: float = field(init=False)
    alpha: float = field(init=False)
    F0: float = math.nan
    gbar_hist: list = field(default_factory=list)

    def __post_init__(self):
        if self.T < 1 or self.W < 1 or self.d < 1:
            raise ValueError("T, W, d must all be at least 1")
        if not self.eta > 0:
            raise ValueError("learning rate must be positive")
        if not 0 <= self.gamma < 1:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if not 2 <= self.b_min <= self.b_max <= 32:
            raise ValueError("clamps must satisfy 2 <= b_min <= b_max <= 32")
        if self.tau < 1:
            raise ValueError("refresh period tau must be at least 1")
        if self.alpha_source not in ("estimate", "closed_form"):
            raise ValueError(f"unknown alpha source {self.alpha_source!r}")
        if self.eps_q_hat is None:
            if not self.epsilon > 0:
                raise ValueError("epsilon must be positive")
            self.eps_q = (1.0 - self.gamma) * self.epsilon
            self.eps_q_hat = (
                8.0 * self.W / (self.L * self.d * self.eta**2) * self.eps_q
            )
        else:
            if not self.eps_q_hat > 0:
                raise ValueError("eps_q_hat must be positive")
            self.eps_q = self.eps_q_hat * self.L * self.d * self.eta**2 / (8.0 * self.W)
        self.alpha = _clamp_alpha(alpha_closed_form(self.eta, self.L, self.mu))


def dq_bits(state: SchedulerState, t: int, gbar: float) -> int:
    """Integer dynamic allocation: continuous rule, half-up, clamped."""
    if gbar <= 0:
        return state.b_min
    b = continuous_bits(t, state.T, state.eps_q_hat, state.alpha, gbar)
    return min(max(_round_half_up(b), state.b_min), state.b_max)


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


class BitSchedule:
    """Base bit schedule: emits b_t for each round."""

    kind = "base"

    def start(self, f0: float) -> int:
        raise NotImplementedError

    def update(self, t: int, loss_t: float, gbar_t: float) -> int:
        """Bits for round t+1, given stats observed through round t."""
        raise NotImplementedError


class FixedSchedule(BitSchedule):
    """Constant width; also covers the ternary (2-bit) baseline."""

    def __init__(self, bits: int, kind: str = "fixed"):
        if not 2 <= bits <= 32:
            raise ValueError(f"fixed width must be in [2, 32], got {bits}")
        if kind == "ternary" and bits != 2:
            raise ValueError("ternary schedule is the 2-bit constant schedule")
        self.bits = bits
        self.kind = kind

    def start(self, f0: float) -> int:
        return self.bits

    def update(self, t: int, loss_t: float, gbar_t: float) -> int:
        return self.bits


class SignSchedule(BitSchedule):
    """1 bit per coordinate every round (handled by the sign codec)."""

    kind = "sign"

    def start(self, f0: float) -> int:
        return 1

    def update(self, t: int, loss_t: float, gbar_t: float) -> int:
        return 1


class DynamicSchedule(BitSchedule):
    """Budget-driven allocation with a tau-periodic refresh.

    Starts at state.b0.  Every tau rounds the contraction estimate and the
    norm statistic are re-read and the width recomputed; between refreshes
    the width is held.  The refresh consumes the most recent completed
    round's statistics.
    """

    kind = "dynamic"

    def __init__(self, state: SchedulerState):
        self.state = state
        self._current = state.b0

    def start(self, f0: float) -> int:
        self.state.F0 = f0
        self._current = min(max(self.state.b0, self.state.b_min), self.state.b_max)
        return self._current

    def update(self, t: int, loss_t: float, gbar_t: float) -> int:
        st = self.state
        st.gbar_hist.append(gbar_t)
        t_next = t + 1
        if t_next < st.T and t_next % st.tau == 0:
            if st.alpha_source == "estimate" and t >= 1 and st.F0 > 0:
                st.alpha = alpha_estimate(st.F0, loss_t, t)
            elif st.alpha_source == "closed_form":
                st.alpha = _clamp_alpha(alpha_closed_form(st.eta, st.L, st.mu))
            self._current = dq_bits(st, t_next, gbar_t)
        return self._current
