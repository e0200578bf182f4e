"""Self-contained verification suites for the analytical guarantees.

Each suite stresses one closed-form result against an independent witness:
Monte-Carlo sampling for the aggregation moments and the exact quadratic
error, simulated descent runs for the convergence bound, substitution for
the budget stationarity, and paired runs for the cost ordering.  They are
exposed through the command-line `verify` verb and reused verbatim by the
acceptance test suite; every tolerance is fixed here, not by callers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .objective import QuadraticObjective
from .schedule import (
    alpha_closed_form,
    budget_satisfaction,
    continuous_bits,
    fixed_bits_for_budget,
)
from .sim import ObjectiveSpec, OracleSpec, RunConfig, ScheduleSpec, run
from .theory import (
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

__all__ = [
    "VerifyResult",
    "verify_lemma1",
    "verify_theorem1",
    "verify_theorem2",
    "verify_theorem3",
    "verify_schedule",
    "VERIFIERS",
]


@dataclass
class VerifyResult:
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    def record(self, label: str, ok: bool, detail: str = "") -> bool:
        status = "pass" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        self.lines.append(f"[{status}] {label}{suffix}")
        if not ok:
            self.passed = False
        return ok

    def report(self) -> str:
        head = f"{self.name}: {'PASS' if self.passed else 'FAIL'} ({self.elapsed:.1f}s)"
        return "\n".join([head, *self.lines])


def verify_lemma1(seed: int = 0, draws: int = 100_000) -> VerifyResult:
    """Aggregated quantized gradients: unbiased mean, bounded second moment.

    Grid over (d, W, b) in {1,16,256} x {1,8} x {2,4,8}; fixed random worker
    gradients; 5-standard-error tolerances on both moments.
    """
    start = time.perf_counter()
    result = VerifyResult("lemma1", True)
    rng = np.random.default_rng(seed)
    for d in (1, 16, 256):
        for W in (1, 8):
            gs = [rng.standard_normal(d) for _ in range(W)]
            for b in (2, 4, 8):
                rep = lemma1_mc_check(gs, bits=b, n_draws=draws, rng=rng)
                result.record(
                    f"d={d} W={W} b={b}", rep.passed, rep.summary()
                )
    result.elapsed = time.perf_counter() - start
    return result


def _synthetic_noise_schedule(T: int):
    """Frozen (gbar_t, b_t) history used by the exactness checks."""
    t = np.arange(T)
    gbar = 2.0 * 0.98**t + 0.05
    bits = np.where(t < T // 2, 3, 4)
    return gbar, bits


def verify_theorem3(
    seed: int = 0, n_seeds: int = 10_000, T: int = 200
) -> VerifyResult:
    """Exact quadratic error vs Monte-Carlo noisy descent, 4-SE tolerance.

    Isotropic quadratic (d=4, curvature 1, eta=0.1) with injected Gaussian
    noise at the per-step variance ceiling of the quantized aggregate.  Also
    cross-checks the general eigenbasis path against the isotropic closed
    form at 1e-12 relative.
    """
    start = time.perf_counter()
    result = VerifyResult("theorem3", True)
    d, lam, eta, sigma, W = 4, 1.0, 0.1, 0.5, 8
    gbar, bits = _synthetic_noise_schedule(T)
    traces = np.array(
        [
            quantization_noise_covariance_trace(sigma, W, d, g, int(b))
            for g, b in zip(gbar, bits)
        ]
    )
    x0 = np.ones(d)
    # the general path: a dense H and the eigenbasis its eigh finds
    dense = QuadraticObjective(lam * np.eye(d))
    f0 = 0.5 * lam * float(x0 @ x0)

    exact_iso = theorem3_exact_isotropic(lam, f0, traces, eta)
    exact_gen = theorem3_exact_series(
        *dense.spectrum(), x0, dense.optimum(), traces / d, eta, T
    )
    rel = float(np.max(np.abs(exact_gen - exact_iso) / np.abs(exact_iso)))
    result.record("general path matches isotropic path", rel <= 1e-12, f"rel={rel:.2e}")

    rng = np.random.default_rng(seed)
    x = np.tile(x0, (n_seeds, 1))
    scales = eta * np.sqrt(traces / d)
    rho = 1.0 - eta * lam
    for t in range(T):
        x = rho * x - scales[t] * rng.standard_normal((n_seeds, d))
    final_gap = 0.5 * lam * np.einsum("ij,ij->i", x, x)
    mc_mean = float(final_gap.mean())
    mc_se = float(final_gap.std(ddof=1) / math.sqrt(n_seeds))
    z = abs(mc_mean - exact_iso[-1]) / mc_se
    result.record(
        f"Monte-Carlo mean within 4 SE over {n_seeds} seeds",
        z <= 4.0,
        f"mc={mc_mean:.6g} exact={exact_iso[-1]:.6g} |z|={z:.2f}",
    )
    result.elapsed = time.perf_counter() - start
    return result


_T1_HORIZONS = (10, 50, 100, 200)


def _theorem1_run_config(schedule: ScheduleSpec, seed: int) -> RunConfig:
    return RunConfig(
        objective=ObjectiveSpec(kind="quadratic", d=4, mu=1.0, L=4.0, hessian_seed=7),
        oracle=OracleSpec(kind="gaussian", sigma=0.5),
        schedule=schedule,
        W=4,
        T=200,
        eta=0.1,
        seed=seed,
        x0="ones",
    )


def verify_theorem1(seed: int = 0, n_seeds: int = 120) -> VerifyResult:
    """Convergence bound dominates measured runs and is tight when matched.

    (a) For fixed-2/4/8 and dynamic schedules on one quadratic, the
    seed-averaged measured gap at horizons 10/50/100/200 stays below the
    bound evaluated on the seed-averaged realized noise, plus 3 SE.
    (b) With the variance ceiling injected into the exact quadratic series,
    the bound and the exact error agree to 1e-9 relative at every horizon.
    """
    start = time.perf_counter()
    result = VerifyResult("theorem1", True)

    schedules = {
        "fixed-2": ScheduleSpec(kind="fixed", bits=2),
        "fixed-4": ScheduleSpec(kind="fixed", bits=4),
        "fixed-8": ScheduleSpec(kind="fixed", bits=8),
        "dynamic": ScheduleSpec(
            kind="dynamic", epsilon=0.05, gamma=0.5, tau=25, b0=8
        ),
    }
    base = _theorem1_run_config(schedules["fixed-4"], 0)
    obj = QuadraticObjective.random_pd(
        4, 1.0, 4.0, np.random.default_rng(base.objective.hessian_seed)
    )
    L, mu = obj.constants()
    f_star = obj.optimal_value()
    sigma, W, d, eta = base.oracle.sigma, base.W, 4, base.eta
    alpha = alpha_closed_form(eta, L, mu)

    for label, spec in schedules.items():
        gaps = {u: [] for u in _T1_HORIZONS}
        noise_sum = np.zeros(base.T)
        f0_gap = None
        for k in range(n_seeds):
            tr = run(_theorem1_run_config(spec, seed * 100_003 + k))
            s = np.exp2(tr.bits - 1.0) - 1.0
            noise_sum += tr.gbar**2 / s**2
            f0_gap = tr.loss[0] - f_star
            for u in _T1_HORIZONS:
                gaps[u].append(tr.gap_at(u, f_star))
        bound = theorem1_bound_from_noise(
            f0_gap, L, eta, sigma, W, d, noise_sum / n_seeds, alpha
        )
        for u in _T1_HORIZONS:
            arr = np.asarray(gaps[u])
            mean = float(arr.mean())
            se = float(arr.std(ddof=1) / math.sqrt(n_seeds))
            ok = mean <= bound[u] + 3.0 * se
            result.record(
                f"{label} horizon {u}: measured <= bound + 3 SE",
                ok,
                f"measured={mean:.5g} bound={bound[u]:.5g} se={se:.2g}",
            )

    lam, T, sigma_t, W_t, d_t, eta_t = 1.0, 200, 0.3, 8, 6, 0.1
    gbar, bits = _synthetic_noise_schedule(T)
    gap0 = 1.7
    bound = theorem1_bound(gap0, lam, lam, eta_t, sigma_t, W_t, d_t, gbar, bits)
    traces = np.array(
        [
            quantization_noise_covariance_trace(sigma_t, W_t, d_t, g, int(b))
            for g, b in zip(gbar, bits)
        ]
    )
    exact = theorem3_exact_isotropic(lam, gap0, traces, eta_t)
    rel = float(np.max(np.abs(exact - bound) / np.abs(bound)))
    result.record(
        "ceiling-covariance exact error equals bound at every horizon",
        rel <= 1e-9,
        f"max rel diff={rel:.2e}",
    )
    result.elapsed = time.perf_counter() - start
    return result


def _random_budget_instance(rng: np.random.Generator):
    """Random (alpha, gbar sequence, T, budget) with interior continuous bits.

    The width formula is only meaningful between the clamps; instances are
    drawn so the continuous widths stay in [2.5, 31.5], where half-up
    rounding provably moves each noise term by less than a factor of 4.
    """
    while True:
        T = int(rng.integers(40, 400))
        alpha = float(rng.uniform(0.985, 0.9995))
        decay = float(rng.uniform(math.sqrt(alpha), 1.0))
        gbar = (
            float(rng.uniform(0.5, 20.0))
            * decay ** np.arange(T)
            * rng.uniform(0.8, 1.25, size=T)
        )
        target_bits = float(rng.uniform(4.0, 12.0))
        weights = alpha ** np.arange(T - 1, -1, -1, dtype=np.float64)
        s_target = 2.0 ** (target_bits - 1.0) - 1.0
        eps_q_hat = float(np.sum(weights * gbar**2)) / s_target**2
        cont = np.array(
            [continuous_bits(t, T, eps_q_hat, alpha, gbar[t]) for t in range(T)]
        )
        if cont.min() >= 2.5 and cont.max() <= 31.5:
            return alpha, gbar, T, eps_q_hat, cont


def verify_schedule(seed: int = 0, n_instances: int = 100) -> VerifyResult:
    """Budget stationarity of the allocation rule, before and after rounding.

    On random (alpha, norm-history, T) instances the unrounded widths return
    the budget exactly (1e-9 relative); the half-up integer widths keep the
    realized noise sum within a factor of 4.
    """
    start = time.perf_counter()
    result = VerifyResult("schedule", True)
    rng = np.random.default_rng(seed)

    worst_rel = 0.0
    worst_factor = 1.0
    for _ in range(n_instances):
        alpha, gbar, T, eps_q_hat, cont = _random_budget_instance(rng)
        realized = budget_satisfaction(cont, gbar, alpha, T)
        worst_rel = max(worst_rel, abs(realized - eps_q_hat) / eps_q_hat)
        rounded = np.clip(np.floor(cont + 0.5), 2, 32)
        realized_int = budget_satisfaction(rounded, gbar, alpha, T)
        factor = max(realized_int / eps_q_hat, eps_q_hat / realized_int)
        worst_factor = max(worst_factor, factor)
    result.record(
        f"continuous widths recover the budget on {n_instances} instances",
        worst_rel <= 1e-9,
        f"worst rel err={worst_rel:.2e}",
    )
    result.record(
        "integer widths stay within a factor of 4 of the budget",
        worst_factor <= 4.0,
        f"worst factor={worst_factor:.3f}",
    )

    # wild instances for the exactness half only: no clamp-interior
    # restriction, just small enough implied grid sizes rejected (the b -> s
    # round trip is ill-conditioned once 2**(b-1) - 1 underflows)
    done = 0
    while done < n_instances:
        T = int(rng.integers(2, 60))
        alpha = float(rng.uniform(0.5, 0.999))
        gbar = rng.uniform(0.05, 50.0, size=T)
        eps_q_hat = float(rng.uniform(1e-3, 1e2))
        cont = np.array(
            [continuous_bits(t, T, eps_q_hat, alpha, gbar[t]) for t in range(T)]
        )
        if np.min(np.exp2(cont - 1.0) - 1.0) < 1e-3:
            continue
        done += 1
        realized = budget_satisfaction(cont, gbar, alpha, T)
        worst_rel = max(worst_rel, abs(realized - eps_q_hat) / eps_q_hat)
    result.record(
        "exactness also holds without clamp-interior restriction",
        worst_rel <= 1e-9,
        f"worst rel err={worst_rel:.2e}",
    )
    result.elapsed = time.perf_counter() - start
    return result


def _paired_cost_config(schedule: ScheduleSpec, seed: int) -> RunConfig:
    return RunConfig(
        objective=ObjectiveSpec(kind="quadratic-isotropic", d=8, lam=1.0),
        oracle=OracleSpec(kind="gaussian", sigma=0.3),
        schedule=schedule,
        W=4,
        T=200,
        eta=0.1,
        seed=seed,
        x0="ones",
    )


def verify_theorem2(seed: int = 0, n_seeds: int = 50) -> VerifyResult:
    """Cost ordering: GM < AM everywhere, and dynamic beats fixed in runs.

    (a) Over a 100-point (alpha, T) grid the geometric mean of contraction
    powers is strictly below the arithmetic mean, so the dynamic cost bound
    is strictly below the fixed one.  (b) In paired runs calibrated to one
    budget from a common full-precision reference history, the dynamic
    schedule's realized bits undercut the calibrated fixed width in at
    least 95% of seeds.
    """
    start = time.perf_counter()
    result = VerifyResult("theorem2", True)

    grid_ok = True
    bound_ok = True
    for alpha in np.linspace(0.01, 0.999, 20):
        for T in (2, 5, 10, 50, 100):
            am = am_alpha(float(alpha), T)
            gm = gm_alpha(float(alpha), T)
            if not gm < am:
                grid_ok = False
            dq = dq_total_cost_bound(8, 10, T, 1.0, 1.0, 0.5, 1.0, float(alpha))
            fx = fixed_total_cost_bound(8, 10, T, 1.0, 1.0, 0.5, 1.0, float(alpha))
            if not dq < fx:
                bound_ok = False
    result.record("GM(alpha) < AM(alpha) on the 100-point grid", grid_ok)
    result.record("dynamic cost bound < fixed cost bound on the grid", bound_ok)

    base = _paired_cost_config(ScheduleSpec(kind="fixed", bits=32), 0)
    lam = base.objective.lam
    alpha = alpha_closed_form(base.eta, lam, lam)
    eps_q_hat = 40.0
    wins = 0
    for k in range(n_seeds):
        run_seed = seed * 99_991 + k
        ref = run(_paired_cost_config(ScheduleSpec(kind="fixed", bits=32), run_seed))
        b_fixed = fixed_bits_for_budget(ref.gbar, alpha, eps_q_hat)
        dyn_spec = ScheduleSpec(
            kind="dynamic",
            eps_q_hat=eps_q_hat,
            tau=10,
            b0=b_fixed,
            alpha_source="closed_form",
        )
        dyn = run(_paired_cost_config(dyn_spec, run_seed))
        fixed = run(_paired_cost_config(ScheduleSpec(kind="fixed", bits=b_fixed), run_seed))
        if dyn.total_bits <= fixed.total_bits:
            wins += 1
    frac = wins / n_seeds
    result.record(
        f"dynamic bits <= calibrated fixed bits in >= 95% of {n_seeds} seeds",
        frac >= 0.95,
        f"win fraction={frac:.2f}",
    )
    result.elapsed = time.perf_counter() - start
    return result


VERIFIERS = {
    "lemma1": verify_lemma1,
    "theorem1": verify_theorem1,
    "theorem2": verify_theorem2,
    "theorem3": verify_theorem3,
    "schedule": verify_schedule,
}
