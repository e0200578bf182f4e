"""Objectives: closed forms, gradients vs finite differences, oracle moments."""

import math

import numpy as np
import pytest

from dqsim.objective import (
    LANCZOS_MIN_SIDE,
    GradientOracle,
    LogisticObjective,
    QuadraticObjective,
    make_dataset,
)
from dqsim.quant import lp_norm
from dqsim.streams import worker_stream


def test_quadratic_loss_trivial_points():
    obj = QuadraticObjective.isotropic(2, 1.0)
    assert obj.loss(np.zeros(2)) == 0.0
    assert obj.loss(np.array([1.0, 1.0])) == 1.0


def test_quadratic_gradient_examples():
    obj = QuadraticObjective.isotropic(2, 2.0)
    assert np.array_equal(obj.gradient(np.array([1.0, 0.0])), [2.0, 0.0])
    rng = np.random.default_rng(0)
    obj = QuadraticObjective.random_pd(5, 0.5, 3.0, rng)
    assert np.linalg.norm(obj.gradient(obj.optimum())) <= 1e-10


def test_quadratic_optimal_value_closed_form():
    rng = np.random.default_rng(1)
    obj = QuadraticObjective.random_pd(4, 1.0, 5.0, rng)
    obj = QuadraticObjective(obj.H, A=rng.standard_normal(4), B=0.7)
    x_star = obj.optimum()
    assert obj.optimal_value() == pytest.approx(obj.loss(x_star), rel=1e-12)
    # any perturbation increases the loss
    for _ in range(10):
        assert obj.loss(x_star + 0.1 * rng.standard_normal(4)) > obj.optimal_value()


def test_constants_examples():
    obj = QuadraticObjective(np.diag([1.0, 4.0]))
    assert obj.constants() == (4.0, 1.0)
    obj = QuadraticObjective.isotropic(3, 2.5)
    assert obj.constants() == (2.5, 2.5)


def test_constants_against_power_iteration():
    rng = np.random.default_rng(2)
    obj = QuadraticObjective.random_pd(8, 0.3, 6.0, rng)
    v = rng.standard_normal(8)
    for _ in range(2000):
        v = obj.H @ v
        v /= np.linalg.norm(v)
    top = float(v @ obj.H @ v)
    L, mu = obj.constants()
    assert L == pytest.approx(top, rel=1e-8)
    assert (L, mu) == pytest.approx((6.0, 0.3), rel=1e-10)


def test_non_positive_definite_rejected():
    with pytest.raises(ValueError):
        QuadraticObjective(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        QuadraticObjective(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_logistic_loss_against_brute_force():
    X = np.array(
        [[1.0, 0.5], [-0.3, 2.0], [0.8, -1.2], [0.0, 0.4], [-1.5, -0.7]]
    )
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    obj = LogisticObjective(X, y, ridge=0.05)
    x = np.array([0.3, -0.8])
    brute = (
        math.fsum(math.log(1.0 + math.exp(-yi * (xi @ x))) for xi, yi in zip(X, y)) / 5
        + 0.025 * float(x @ x)
    )
    assert obj.loss(x) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_gradient_matches_central_differences(kind):
    rng = np.random.default_rng(3)
    if kind == "quadratic":
        obj = QuadraticObjective.random_pd(6, 0.5, 4.0, rng)
        obj = QuadraticObjective(obj.H, A=rng.standard_normal(6), B=0.2)
    else:
        X, y = make_dataset(40, 6, seed=5)
        obj = LogisticObjective(X, y, ridge=0.1)
    x = rng.standard_normal(6)
    grad = obj.gradient(x)
    h = 1e-6
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        fd = (obj.loss(x + e) - obj.loss(x - e)) / (2 * h)
        assert fd == pytest.approx(grad[j], rel=1e-5, abs=1e-8)


def test_smoothness_inequality_property():
    rng = np.random.default_rng(4)
    obj = QuadraticObjective.random_pd(5, 0.5, 3.0, rng)
    L, _ = obj.constants()
    for _ in range(1000):
        x = rng.standard_normal(5) * 3
        y = rng.standard_normal(5) * 3
        lhs = obj.loss(y)
        rhs = obj.loss(x) + obj.gradient(x) @ (y - x) + 0.5 * L * float((y - x) @ (y - x))
        assert lhs <= rhs * (1 + 1e-12) + 1e-12


def test_pl_inequalities_for_quadratics():
    rng = np.random.default_rng(5)
    obj = QuadraticObjective.random_pd(5, 0.7, 4.0, rng)
    obj = QuadraticObjective(obj.H, A=rng.standard_normal(5))
    L, mu = obj.constants()
    f_star = obj.optimal_value()
    for _ in range(1000):
        x = rng.standard_normal(5) * 2
        gap = obj.loss(x) - f_star
        sq = float(np.linalg.norm(obj.gradient(x)) ** 2)
        assert 2 * mu * gap <= sq * (1 + 1e-10) + 1e-12
        assert sq <= 2 * L * gap * (1 + 1e-10) + 1e-12


def _design(shape):
    """(X, y) for a named design shape, some of them rank-deficient."""
    if shape == "duplicated-row":
        X, y = make_dataset(12, 30, seed=6)
        X[5], y[5] = X[2], y[2]
    elif shape == "zero-column":
        X, y = make_dataset(40, 9, seed=6)
        X[:, 3] = 0.0
    else:
        n, d = {"tall": (50, 4), "wide": (20, 70), "square": (30, 30),
                "one-row": (1, 7), "one-column": (9, 1)}[shape]
        X, y = make_dataset(n, d, seed=6)
    return X, y


@pytest.mark.parametrize(
    "shape", ["tall", "wide", "square", "duplicated-row", "zero-column", "one-row", "one-column"]
)
def test_logistic_constants_formula(shape):
    X, y = _design(shape)
    obj = LogisticObjective(X, y, ridge=0.2)
    op = np.linalg.norm(X, ord=2)
    L, mu = obj.constants()
    assert L == pytest.approx(op**2 / (4 * X.shape[0]) + 0.2, rel=1e-12)
    assert mu == 0.2


def _lapack_top_gram_eigenvalue(X):
    """The Gram matrix's top eigenvalue from LAPACK's eigh, as found below
    LANCZOS_MIN_SIDE."""
    from scipy.linalg import eigh

    G = X @ X.T if X.shape[0] <= X.shape[1] else X.T @ X
    k = G.shape[0] - 1
    return float(eigh(G, eigvals_only=True, subset_by_index=[k, k])[0])


def _large_design(shape):
    """A design whose Gram side is LANCZOS_MIN_SIDE, some of them rank-deficient."""
    m = LANCZOS_MIN_SIDE
    if shape == "square":
        return make_dataset(m, m, seed=7)[0]
    X = make_dataset(m, 2 * m, seed=7)[0]
    if shape == "duplicated-row":
        X[m // 2 :] = X[: m // 2]
    elif shape == "negated-row":
        # +-1 features whose rows sum to exactly zero: X X' maps the all-ones
        # vector to exact zeros, and a Lanczos start there fails
        X = np.sign(X)
        X[m // 2 :] = -X[: m // 2]
    elif shape == "zero-column":
        X = X.T.copy()
        X[:, ::3] = 0.0
    elif shape == "tall":
        X = X.T.copy()
    return X


@pytest.mark.parametrize(
    "shape", ["wide", "tall", "square", "duplicated-row", "negated-row", "zero-column"]
)
def test_logistic_smoothness_by_lanczos_matches_lapack(shape, monkeypatch):
    import scipy.linalg

    X = _large_design(shape)
    n = X.shape[0]
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    expected = _lapack_top_gram_eigenvalue(X) / (4 * n) + 0.1
    # at and above the crossover the eigenvalue comes from the Lanczos branch
    monkeypatch.setattr(scipy.linalg, "eigh", None)
    L, _ = LogisticObjective(X, y, ridge=0.1).constants()
    assert L == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_logistic_smoothness_of_a_zero_design_is_the_ridge():
    for n in (LANCZOS_MIN_SIDE - 1, LANCZOS_MIN_SIDE):
        obj = LogisticObjective(np.zeros((n, n + 3)), np.ones(n), ridge=0.25)
        assert obj.constants() == (0.25, 0.25)


def test_logistic_smoothness_below_the_crossover_is_lapacks(monkeypatch):
    import scipy.sparse.linalg

    # criterion 6's design: its L, and so its transcripts, stay LAPACK's bit for bit
    X, y = make_dataset(2000, 50, seed=11, label_noise=0.2)
    assert min(X.shape) < LANCZOS_MIN_SIDE
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", None)
    L, _ = LogisticObjective(X, y, ridge=0.1).constants()
    assert L == _lapack_top_gram_eigenvalue(X) / (4 * 2000) + 0.1


def test_logistic_build_runs_no_svd(monkeypatch):
    import scipy.linalg

    def no_svd(*args, **kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(scipy.linalg, "svd", no_svd)
    for shape in ("tall", "wide", "square"):
        LogisticObjective(*_design(shape), ridge=0.1)


@pytest.mark.parametrize("n, d", [(40, 3), (60, 120), (400, 20)])
def test_logistic_optimum_equals_two_call_minimize(n, d):
    from scipy.optimize import minimize

    X, y = make_dataset(n, d, seed=21)
    obj = LogisticObjective(X, y, ridge=0.1)
    old = minimize(
        obj.loss,
        np.zeros(d),
        jac=obj.gradient,
        method="L-BFGS-B",
        options={"gtol": 1e-12, "maxiter": 5000},
    )
    assert np.array_equal(obj.optimum(), old.x)
    assert obj.optimal_value() == obj.loss(old.x)


def test_gaussian_oracle_degenerate_noise_is_exact():
    obj = QuadraticObjective.isotropic(3, 1.0, A=np.array([0.5, -0.5, 1.0]))
    oracle = GradientOracle(obj, workers=2, noise="gaussian", sigma=0.0)
    x = np.array([1.0, 2.0, 3.0])
    g = oracle.sample(0, x, np.random.default_rng(0))
    assert np.array_equal(g, obj.gradient(x))


def test_gaussian_oracle_mean_within_5_se():
    obj = QuadraticObjective.isotropic(4, 1.0)
    oracle = GradientOracle(obj, workers=1, noise="gaussian", sigma=0.8)
    x = np.array([1.0, -1.0, 0.5, 2.0])
    rng = np.random.default_rng(7)
    n = 100_000
    draws = np.stack([oracle.sample(0, x, rng) for _ in range(200)])
    # vectorized equivalent for the big sample
    big = obj.gradient(x) + rng.normal(0, 0.8 / 2.0, size=(n, 4))
    mean = big.mean(axis=0)
    se = big.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mean - obj.gradient(x)) <= 5 * se)
    assert draws.shape == (200, 4)


def test_gaussian_oracle_second_moment_calibrated():
    obj = QuadraticObjective.isotropic(6, 1.0)
    sigma = 0.7
    oracle = GradientOracle(obj, workers=2, noise="gaussian", sigma=sigma)
    x = np.ones(6)
    measured, per_worker = oracle.calibrate(x, draws=4000, rng=np.random.default_rng(8))
    n = 4000 * 2
    # chi-square spread of the squared-norm mean
    se = sigma**2 * math.sqrt(2.0 / (6 * n))
    assert measured <= sigma**2 + 5 * se
    assert len(per_worker) == 2


def test_minibatch_full_shard_is_deterministic():
    X, y = make_dataset(40, 3, seed=9)
    obj = LogisticObjective(X, y, ridge=0.1)
    oracle = GradientOracle(
        obj, workers=4, noise="minibatch", batch_size=10**6, shard_mode="replicate"
    )
    x = np.array([0.2, -0.1, 0.4])
    g1 = oracle.sample(0, x, np.random.default_rng(1))
    g2 = oracle.sample(3, x, np.random.default_rng(2))
    assert np.array_equal(g1, g2)
    assert np.array_equal(g1, obj.gradient(x))


def test_minibatch_shards_are_contiguous_equal_splits():
    X, y = make_dataset(12, 2, seed=10)
    obj = LogisticObjective(X, y)
    oracle = GradientOracle(obj, workers=3, noise="minibatch", batch_size=2)
    assert [list(s) for s in oracle.shards] == [
        [0, 1, 2, 3],
        [4, 5, 6, 7],
        [8, 9, 10, 11],
    ]


def test_minibatch_oracle_unbiased_over_shards():
    X, y = make_dataset(60, 3, seed=11)
    obj = LogisticObjective(X, y, ridge=0.05)
    W = 4
    oracle = GradientOracle(obj, workers=W, noise="minibatch", batch_size=5)
    x = np.array([0.3, 0.1, -0.2])
    rng = np.random.default_rng(12)
    n = 20_000
    # each round's W picks in worker order, evaluated in one pass; row r of
    # draws is round r's average over the workers
    picks = [oracle.draw(i, rng) for _ in range(n) for i in range(W)]
    draws = oracle.gradients(x, picks).reshape(n, W, -1).mean(axis=1)
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mean - obj.gradient(x)) <= 5 * se)


def test_minibatch_calibration_is_reproducible_bound():
    X, y = make_dataset(80, 4, seed=13)
    obj = LogisticObjective(X, y, ridge=0.1)
    oracle = GradientOracle(obj, workers=4, noise="minibatch", batch_size=4)
    x = 0.1 * np.ones(4)
    first, _ = oracle.calibrate(x, draws=3000, rng=np.random.default_rng(14))
    second, per_worker = oracle.calibrate(x, draws=3000, rng=np.random.default_rng(15))
    # two independent measurements of the same quantity agree within 5 SE
    se = first * math.sqrt(2.0 / 3000)
    assert abs(second - first) <= 5 * se
    assert second == max(per_worker)
    assert len(per_worker) == 4


def test_oracle_error_cases():
    obj = QuadraticObjective.isotropic(2, 1.0)
    with pytest.raises(ValueError):
        GradientOracle(obj, workers=2, noise="minibatch")
    X, y = make_dataset(10, 2, seed=16)
    lobj = LogisticObjective(X, y)
    with pytest.raises(ValueError):
        GradientOracle(lobj, workers=3, noise="minibatch")  # 10 % 3 != 0
    oracle = GradientOracle(obj, workers=2, noise="gaussian", sigma=1.0)
    with pytest.raises(ValueError):
        oracle.sample(2, np.zeros(2), np.random.default_rng(0))
    with pytest.raises(ValueError):
        GradientOracle(obj, workers=2, noise="bogus")


# ---------------------------------------------------------------------------
# the batched oracle: per-worker draws, then one gradient pass
# ---------------------------------------------------------------------------


def _reference_sample(oracle, worker, x, rng, exact):
    """One worker's sample computed alone, as the per-worker oracle did."""
    if oracle.noise == "gaussian":
        if oracle.sigma > 0:
            return exact + rng.normal(0.0, oracle.sigma / np.sqrt(oracle.d), size=oracle.d)
        return exact
    shard = oracle.shards[worker]
    rows = shard
    if oracle.batch_size < len(shard):
        rows = rng.choice(shard, size=oracle.batch_size, replace=False)
    return oracle.objective.gradient_on(rows, x)


ORACLE_CASES = {
    "split-batch-below-shard": dict(noise="minibatch", batch_size=3),
    "split-batch-covers-shard": dict(noise="minibatch", batch_size=100),
    "replicate-batch-below-n": dict(noise="minibatch", batch_size=7, shard_mode="replicate"),
    "replicate-full-batch": dict(noise="minibatch", batch_size=10**6, shard_mode="replicate"),
    "gaussian-sigma": dict(noise="gaussian", sigma=0.6),
    "gaussian-exact": dict(noise="gaussian", sigma=0.0),
}


def _oracle(W, case, d=9, n=80):
    X, y = make_dataset(n, d, seed=31)
    obj = LogisticObjective(X, y, ridge=0.05)
    return GradientOracle(obj, workers=W, **ORACLE_CASES[case])


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
@pytest.mark.parametrize("W", [1, 5, 16])
def test_draw_and_gradients_equal_per_worker_samples(W, case):
    oracle = _oracle(W, case)
    rng = np.random.default_rng(32)
    for t in range(3):
        x = rng.standard_normal(oracle.d)
        exact = oracle.objective.gradient(x)
        draws = [None] * W
        for i in reversed(range(W)):
            draws[i] = oracle.draw(i, worker_stream(40, i, t))
        grads = oracle.gradients(x, draws, exact)
        assert grads.shape == (W, oracle.d)
        for i in range(W):
            ref = _reference_sample(oracle, i, x, worker_stream(40, i, t), exact)
            assert np.array_equal(grads[i], ref)
            # the batch of one is the same number, and so is the row's norm
            alone = oracle.sample(i, x, worker_stream(40, i, t), exact)
            assert np.array_equal(alone, ref)
            assert lp_norm(grads[i], 3.0) == lp_norm(ref, 3.0)


def test_logistic_gradients_on_row_sets_match_gradient_on():
    X, y = make_dataset(40, 7, seed=35)
    obj = LogisticObjective(X, y, ridge=0.2)
    rng = np.random.default_rng(36)
    x = rng.standard_normal(7)
    rows = np.stack([rng.choice(40, size=6, replace=False) for _ in range(4)])
    buf = np.empty((4, 6, 7))
    grads = obj.gradients_on(rows, x, buf)
    assert grads.shape == (4, 7)
    for g, r in zip(grads, rows):
        assert np.array_equal(g, obj.gradient_on(r, x))
    assert np.array_equal(buf, X[rows])


def test_gather_never_exceeds_n_rows(monkeypatch):
    from dqsim import objective

    gathered = []
    take = np.take

    def recording_take(a, indices, axis=None, out=None, mode="raise"):
        gathered.append(out.shape[0] * out.shape[1])
        return take(a, indices, axis=axis, out=out, mode=mode)

    monkeypatch.setattr(objective.np, "take", recording_take)
    n, W = 80, 16
    oracle = _oracle(W, "replicate-full-batch", n=n)
    x = np.linspace(-1.0, 1.0, oracle.d)
    grads = oracle.gradients(x, [oracle.draw(i, None) for i in range(W)])
    oracle.calibrate(x, draws=7, rng=np.random.default_rng(0))
    assert gathered and max(gathered) <= n
    assert oracle._gather.shape[0] <= n
    assert all(np.array_equal(g, oracle.objective.gradient(x)) for g in grads)


def test_gather_is_cut_to_gather_bytes(monkeypatch):
    from dqsim import objective

    gathered = []
    take = np.take

    def recording_take(a, indices, axis=None, out=None, mode="raise"):
        gathered.append(out.nbytes)
        return take(a, indices, axis=axis, out=out, mode=mode)

    monkeypatch.setattr(objective.np, "take", recording_take)
    W = 16
    oracle = _oracle(W, "split-batch-below-shard")
    one_worker = oracle.batch_size * oracle.d * 8
    monkeypatch.setattr(objective, "GATHER_BYTES", 5 * one_worker)
    x = np.linspace(-1.0, 1.0, oracle.d)
    rng = np.random.default_rng(34)
    draws = [oracle.draw(i, rng) for i in range(W)]
    grads = oracle.gradients(x, draws)
    assert len(gathered) == 4 and max(gathered) == 5 * one_worker
    for g, rows in zip(grads, draws):
        assert np.array_equal(g, oracle.objective.gradient_on(rows, x))


@pytest.mark.parametrize(
    "case", ["split-batch-below-shard", "replicate-batch-below-n", "gaussian-sigma"]
)
def test_calibrate_equals_the_per_draw_measurement(case):
    W, draws = 5, 13  # draws is not a multiple of W
    oracle = _oracle(W, case)
    x = np.full(oracle.d, 0.2)
    measured, per_worker = oracle.calibrate(x, draws, np.random.default_rng(33))
    rng = np.random.default_rng(33)
    ref = oracle.objective.gradient(x)
    expected = []
    for i in range(W):
        total = 0.0
        for _ in range(draws):
            diff = _reference_sample(oracle, i, x, rng, ref) - ref
            total += float(diff @ diff)
        expected.append(total / draws)
    assert per_worker == expected
    assert measured == max(expected)


# ---------------------------------------------------------------------------
# spectral storage: an isotropic objective against its dense twin
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "d, lam, with_A, B",
    [(1, 1.0, False, 0.0), (4, 0.7, True, 0.0), (50, 1.3, True, -2.5), (300, 0.123, True, 4.0)],
)
def test_isotropic_matches_dense_bit_for_bit(d, lam, with_A, B):
    rng = np.random.default_rng(d)
    A = rng.standard_normal(d) if with_A else None
    iso = QuadraticObjective.isotropic(d, lam, A, B)
    dense = QuadraticObjective(lam * np.eye(d), A, B)
    assert iso.H is None
    for x in (rng.standard_normal(d), np.ones(d), np.zeros(d)):
        assert iso.loss(x) == dense.loss(x)
        assert np.array_equal(iso.gradient(x), dense.gradient(x))
    assert np.array_equal(iso.optimum(), dense.optimum())
    assert iso.optimal_value() == dense.optimal_value()
    assert iso.constants() == dense.constants()


def test_isotropic_spectrum_has_no_basis():
    eigvals, basis = QuadraticObjective.isotropic(5, 0.7).spectrum()
    assert basis is None
    assert np.array_equal(eigvals, np.full(5, 0.7))
    with pytest.raises(ValueError):
        QuadraticObjective.isotropic(3, 0.0)


def test_dense_spectrum_is_one_cached_eigh(monkeypatch):
    obj = QuadraticObjective.random_pd(6, 0.5, 3.0, np.random.default_rng(17))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda H: calls.append(H) or eigh(H))
    first = obj.spectrum()
    assert obj.spectrum() is first
    assert len(calls) == 1
    eigvals, basis = first
    assert np.allclose((basis * eigvals) @ basis.T, obj.H, rtol=0.0, atol=1e-12)


def test_logistic_optimal_value_evaluated_once(monkeypatch):
    X, y = make_dataset(40, 3, seed=18)
    obj = LogisticObjective(X, y, ridge=0.1)
    x_star = obj.optimum()
    f_star = obj.loss(x_star)
    points = []
    loss = obj.loss
    monkeypatch.setattr(obj, "loss", lambda x: points.append(x) or loss(x), raising=False)
    assert obj.optimal_value() == f_star
    assert obj.optimal_value() == f_star
    assert len(points) == 1 and points[0] is x_star


def test_run_on_spectral_and_dense_isotropic_objectives_is_identical(monkeypatch):
    from dqsim import sim

    d, lam = 20, 0.7
    for schedule in (
        sim.ScheduleSpec(kind="dynamic", tau=10),
        sim.ScheduleSpec(kind="fixed", bits=5),
    ):
        config = sim.RunConfig(
            objective=sim.ObjectiveSpec(kind="quadratic-isotropic", d=d, lam=lam),
            oracle=sim.OracleSpec(kind="gaussian", sigma=0.5),
            schedule=schedule,
            W=4,
            T=60,
            eta=0.1,
            x0="gaussian",
            seed=5,
        )
        assert sim.build_objective(config.objective).H is None
        spectral = sim.run(config)
        dense = QuadraticObjective(lam * np.eye(d))
        with monkeypatch.context() as m:
            m.setattr(sim, "build_objective", lambda spec: dense)
            other = sim.run(config)
        for name in sim._COMPARED_FIELDS:
            assert np.array_equal(getattr(spectral, name), getattr(other, name)), name
        assert np.array_equal(spectral.x_final, other.x_final)
        assert spectral.final_loss == other.final_loss
