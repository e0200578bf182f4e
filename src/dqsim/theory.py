"""Closed-form convergence and communication-cost oracles.

These functions evaluate the analytical predictions the simulator is checked
against: the recency-weighted convergence-error bound for smooth strongly
convex objectives, the exact error of noisy gradient descent on quadratics,
the variance ceiling of the aggregated quantized gradient, and the total
communication-cost bounds that separate dynamic from fixed-width schedules
by the gap between the arithmetic and geometric means of contraction-factor
powers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quant import QuantizerConfig, dequantized_draws, lp_norm
from .schedule import alpha_closed_form

__all__ = [
    "TheoryReport",
    "Lemma1Report",
    "theorem1_bound",
    "theorem1_bound_from_noise",
    "theorem3_exact_isotropic",
    "theorem3_exact_series",
    "quantization_noise_covariance_trace",
    "am_alpha",
    "gm_alpha",
    "dq_total_cost_bound",
    "fixed_total_cost_bound",
    "lemma1_mc_check",
]


def theorem1_bound_from_noise(
    f0_gap: float,
    L: float,
    eta: float,
    sigma: float,
    W: int,
    d: int,
    quant_noise_seq,
    alpha: float,
) -> np.ndarray:
    """Convergence-error bound series from a per-step quantization-noise
    sequence q_t (normally gbar_t**2 / (2**(b_t-1) - 1)**2).

    Returns E[0..T] where E[u] bounds the expected suboptimality after u
    rounds:

        E[u] = alpha**u * gap
             + (L eta^2 sigma^2 / 2W) * sum_{k<u} alpha**k
             + (L d eta^2 / 8W) * sum_{t<u} alpha**(u-1-t) * q_t.

    Evaluated by the defining one-step recursion, which is numerically
    stable for any alpha.
    """
    q = np.asarray(quant_noise_seq, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError("quantization-noise sequence must be 1-D")
    c_s = L * eta**2 * sigma**2 / (2.0 * W)
    c_q = L * d * eta**2 / (8.0 * W)
    series = np.empty(q.size + 1)
    series[0] = f0_gap
    e = float(f0_gap)
    for t in range(q.size):
        e = alpha * e + c_s + c_q * q[t]
        series[t + 1] = e
    return series


def theorem1_bound(
    f0_gap: float,
    L: float,
    mu: float,
    eta: float,
    sigma: float,
    W: int,
    d: int,
    gbar_seq,
    bits_seq,
) -> np.ndarray:
    """Convergence-error bound series for a realized (gbar_t, b_t) history.

    A step size with contraction factor >= 1 makes the bound vacuous; it is
    still computed, with a warning.
    """
    gbar = np.asarray(gbar_seq, dtype=np.float64)
    bits = np.asarray(bits_seq, dtype=np.float64)
    if gbar.shape != bits.shape or gbar.ndim != 1:
        raise ValueError("gbar and bit sequences must be 1-D and equally long")
    if np.any(bits <= 1):
        raise ValueError("bound requires bits > 1 everywhere")
    alpha = alpha_closed_form(eta, L, mu)
    if alpha >= 1.0:
        warnings.warn(
            f"contraction factor {alpha:.6g} >= 1: bound is non-contractive",
            stacklevel=2,
        )
    s = np.exp2(bits - 1.0) - 1.0
    return theorem1_bound_from_noise(f0_gap, L, eta, sigma, W, d, gbar**2 / s**2, alpha)


def _covariance_diagonals(sigma_seq, T: int, d: int, basis: np.ndarray | None):
    """Per-step covariance diagonals in the Hessian eigenbasis (basis None:
    the standard basis).

    sigma_seq may be a length-T array of scalars c_t (meaning c_t * I), whose
    diagonals come back as a (T, 1) column that broadcasts over the d
    directions, or a (T, d, d) stack of PSD matrices.
    """
    arr = np.asarray(sigma_seq, dtype=np.float64)
    if arr.ndim == 1:
        if arr.size != T:
            raise ValueError(f"need {T} covariance entries, got {arr.size}")
        return arr[:, None]
    if arr.shape != (T, d, d):
        raise ValueError(f"covariances must have shape ({T}, {d}, {d}) or ({T},)")
    if basis is None:
        return np.einsum("tii->ti", arr)
    # diag(Q' Sigma Q) for each step without forming the full products
    rotated = np.einsum("ij,tjk,ki->ti", basis.T, arr, basis)
    return rotated


def theorem3_exact_series(
    eigvals: np.ndarray,
    basis: np.ndarray | None,
    x0: np.ndarray,
    x_star: np.ndarray,
    sigma_seq,
    eta: float,
    T: int,
) -> np.ndarray:
    """Exact expected suboptimality of the noisy descent recursion
    x_{t+1} = x_t - eta * (Hx_t + A) - eta * eps_t with eps_t ~ N(0, Sigma_t),
    at every horizon u = 0..T.

    H is given by its spectrum, H = Q diag(eigvals) Q' with Q = basis (None
    meaning the identity), as QuadraticObjective.spectrum() returns it;
    x_star = -H^{-1} A is the minimizer.  With rho = I - eta H,

        E[u] = 0.5 (x0-x*)' rho^u H rho^u (x0-x*)
             + (eta^2/2) sum_{t<u} Tr[rho^(u-1-t) Sigma_t H rho^(u-1-t)].

    In the eigenbasis both terms reduce to scalar geometric recursions per
    eigendirection, so the cost is O(T d) beyond rotating x0 - x* once.
    """
    eigvals = np.asarray(eigvals, dtype=np.float64)
    d = eigvals.size
    x0 = np.asarray(x0, dtype=np.float64)
    x_star = np.asarray(x_star, dtype=np.float64)
    if eigvals.shape != (d,) or x0.shape != (d,) or x_star.shape != (d,):
        raise ValueError("dimension mismatch between the spectrum, x0, and x*")
    if basis is not None and basis.shape != (d, d):
        raise ValueError("dimension mismatch between the spectrum and its basis")
    if eigvals.min() <= 0:
        raise ValueError("H must be positive definite")
    diag = _covariance_diagonals(sigma_seq, T, d, basis)
    if np.any(diag < -1e-12):
        raise ValueError("covariances must be positive semidefinite")

    z = x0 - x_star if basis is None else basis.T @ (x0 - x_star)
    r2 = (1.0 - eta * eigvals) ** 2

    series = np.empty(T + 1)
    det = eigvals * z * z  # per-direction 2x deterministic energy
    noise = np.zeros(d)  # per-direction accumulated Tr contribution
    series[0] = 0.5 * float(np.sum(det))
    for t in range(T):
        noise = r2 * noise + eigvals * diag[t]
        det = r2 * det
        series[t + 1] = 0.5 * float(np.sum(det)) + 0.5 * eta**2 * float(np.sum(noise))
    return series


def theorem3_exact_isotropic(
    lam: float, f0_gap: float, trace_seq, eta: float
) -> np.ndarray:
    """Isotropic specialization: H = lam * I needs only covariance traces.

        E[u] = beta**u * gap + (lam eta^2 / 2) sum_{t<u} beta**(u-1-t) Tr_t,

    with beta = 1 - 2 eta lam + eta^2 lam^2.
    """
    traces = np.asarray(trace_seq, dtype=np.float64)
    if traces.ndim != 1:
        raise ValueError("trace sequence must be 1-D")
    beta = alpha_closed_form(eta, lam, lam)
    c = lam * eta**2 / 2.0
    series = np.empty(traces.size + 1)
    e = float(f0_gap)
    series[0] = e
    for t in range(traces.size):
        e = beta * e + c * traces[t]
        series[t + 1] = e
    return series


def quantization_noise_covariance_trace(
    sigma: float, W: int, d: int, gbar: float, bits: int
) -> float:
    """Variance ceiling of the aggregated gradient's deviation:
    sigma^2/W + d * gbar^2 / (4 W (2**(b-1)-1)**2).

    Instantiating the exact quadratic error with this trace reproduces the
    convergence bound term for term, which is what makes the bound tight in
    the isotropic case.
    """
    if bits < 2:
        raise ValueError("quantization term needs bits >= 2")
    if W < 1:
        raise ValueError("need at least one worker")
    s = (1 << (bits - 1)) - 1
    return sigma * sigma / W + d * gbar * gbar / (4.0 * W * s * s)


def am_alpha(alpha: float, T: int) -> float:
    """Arithmetic mean of alpha**t over t = 0..T-1."""
    if T < 1:
        raise ValueError("T must be at least 1")
    if alpha == 1.0:
        return 1.0
    return (1.0 - alpha**T) / (T * (1.0 - alpha))


def gm_alpha(alpha: float, T: int) -> float:
    """Geometric mean of alpha**t over t = 0..T-1, i.e. alpha**((T-1)/2)."""
    if T < 1:
        raise ValueError("T must be at least 1")
    return alpha ** ((T - 1) / 2.0)


def _cost_bound(W, d, T, L, f0_gap, sigma, eps_q_hat, b_pre, mean_term: float) -> float:
    lead = W * d * T * 0.5 * math.log2(T * (2.0 * L * f0_gap + sigma**2) / eps_q_hat)
    return lead + W * T * b_pre + W * T * d + 0.5 * W * T * d * math.log2(mean_term)


def dq_total_cost_bound(
    W: int,
    d: int,
    T: int,
    L: float,
    f0_gap: float,
    sigma: float,
    eps_q_hat: float,
    alpha: float,
    b_pre: int = 32,
) -> float:
    """Bits ceiling for the dynamic schedule at a given budget; carries the
    geometric-mean term, which is what undercuts the fixed-width ceiling."""
    if not 0 < alpha < 1:
        raise ValueError("cost bounds need alpha in (0, 1)")
    return _cost_bound(W, d, T, L, f0_gap, sigma, eps_q_hat, b_pre, gm_alpha(alpha, T))


def fixed_total_cost_bound(
    W: int,
    d: int,
    T: int,
    L: float,
    f0_gap: float,
    sigma: float,
    eps_q_hat: float,
    alpha: float,
    b_pre: int = 32,
) -> float:
    """Bits ceiling for the best constant width at the same budget (the
    arithmetic-mean counterpart)."""
    if not 0 < alpha < 1:
        raise ValueError("cost bounds need alpha in (0, 1)")
    return _cost_bound(W, d, T, L, f0_gap, sigma, eps_q_hat, b_pre, am_alpha(alpha, T))


@dataclass
class Lemma1Report:
    """Outcome of the aggregated-gradient Monte-Carlo check."""

    passed: bool
    mean_ok: bool
    second_moment_ok: bool
    max_mean_z: float  # worst coordinate |mean - avg| / SE
    second_moment_margin: float  # (bound + 5 SE) - empirical E||ghat||^2
    empirical_sqnorm: float
    bound_sqnorm: float
    draws: int

    def summary(self) -> str:
        return (
            f"mean ok={self.mean_ok} (max |z|={self.max_mean_z:.2f}), "
            f"second moment ok={self.second_moment_ok} "
            f"(margin={self.second_moment_margin:.3g}, "
            f"E||ghat||^2={self.empirical_sqnorm:.6g} vs bound={self.bound_sqnorm:.6g})"
        )


_LEMMA1_CHUNK = 4096  # draws held in memory at once by lemma1_mc_check


def lemma1_mc_check(
    grads: np.ndarray, bits: int, n_draws: int, rng: np.random.Generator
) -> Lemma1Report:
    """Monte-Carlo verification that averaging W independently quantized
    gradients is unbiased and respects the variance ceiling.

    grads is the (W, d) array, or list, of the W fixed worker gradients, each
    quantized under the l2 norm with a 64-bit header.  Checks that over
    n_draws aggregation rounds (i) each coordinate of the empirical mean is
    within 5 standard errors of the plain average and (ii) the empirical
    E||ghat||^2 does not exceed ||avg||^2 + d*gbar^2/(4W s^2) by more than 5
    standard errors.  The ceiling has no sampling term because the gradients
    are fixed, not sampled.
    """
    if n_draws < 10_000:
        raise ValueError("need at least 1e4 draws for a meaningful check")
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2 or grads.size == 0:
        raise ValueError(f"expected a nonempty (W, d) array of gradients, got {grads.shape}")
    W, d = grads.shape
    cfg = QuantizerConfig(bits=bits, b_pre=64)

    avg = np.mean(grads, axis=0)
    gbar_sq = float(np.mean([lp_norm(g, cfg.p) ** 2 for g in grads]))
    s = cfg.levels
    avg_sq = float(avg @ avg)
    extra = d * gbar_sq / (4.0 * W * s * s)

    # all statistics accumulate on deviations from the known average, so the
    # tiny high-precision margins survive (no E[x^2] - mean^2 cancellation)
    dev_sum = np.zeros(d)
    dev_sumsq = np.zeros(d)
    ex_sum = 0.0
    ex_sumsq = 0.0
    done = 0
    while done < n_draws:
        m = min(_LEMMA1_CHUNK, n_draws - done)
        ghat = np.zeros((m, d))
        for g in grads:
            ghat += dequantized_draws(g, cfg, rng, m)
        ghat /= W
        dev = ghat - avg
        dev_sum += dev.sum(axis=0)
        dev_sumsq += (dev**2).sum(axis=0)
        # per-draw excess of ||ghat||^2 over ||avg||^2
        ex = 2.0 * (dev @ avg) + np.einsum("ij,ij->i", dev, dev)
        ex_sum += float(ex.sum())
        ex_sumsq += float((ex**2).sum())
        done += m

    n = float(n_draws)
    mean_dev = dev_sum / n
    var = np.maximum(dev_sumsq / n - mean_dev**2, 0.0)
    se = np.sqrt(var / n)
    # floor avoids 0/0 on coordinates quantized deterministically
    z = np.abs(mean_dev) / np.maximum(se, 1e-14 * (1.0 + np.abs(avg)))
    max_z = float(z.max())
    mean_ok = bool(max_z <= 5.0)

    emp_extra = ex_sum / n
    emp_extra_var = max(ex_sumsq / n - emp_extra**2, 0.0)
    emp_extra_se = math.sqrt(emp_extra_var / n)
    margin = extra + 5.0 * emp_extra_se - emp_extra
    second_ok = bool(margin >= 0.0)

    return Lemma1Report(
        passed=mean_ok and second_ok,
        mean_ok=mean_ok,
        second_moment_ok=second_ok,
        max_mean_z=max_z,
        second_moment_margin=margin,
        empirical_sqnorm=avg_sq + emp_extra,
        bound_sqnorm=avg_sq + extra,
        draws=n_draws,
    )


@dataclass
class TheoryReport:
    """Analytical companion to a finished (or hypothetical) run."""

    alpha: float
    contractive: bool
    theorem1_bound_series: np.ndarray | None
    theorem3_exact_series: np.ndarray | None
    dq_cost_bound: float | None
    fixed_cost_bound: float | None
    am: float | None
    gm: float | None

    def to_dict(self) -> dict:
        def listify(x):
            return None if x is None else [float(v) for v in np.asarray(x)]

        return {
            "alpha": self.alpha,
            "contractive": self.contractive,
            "theorem1_bound_series": listify(self.theorem1_bound_series),
            "theorem3_exact_series": listify(self.theorem3_exact_series),
            "dq_cost_bound": self.dq_cost_bound,
            "fixed_cost_bound": self.fixed_cost_bound,
            "am": self.am,
            "gm": self.gm,
        }
