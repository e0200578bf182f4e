"""Convex objectives with exact gradients and calibrated stochastic oracles.

Two objective families are provided: quadratics (where the optimum, the
optimal value, and the smoothness / strong-convexity constants are all in
closed form) and ridge-regularized logistic regression on a synthetic
dataset (the desk-scale stand-in for large training tasks).  A gradient
oracle wraps an objective with either additive isotropic Gaussian noise of
a prescribed second moment or minibatch sampling over per-worker shards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadraticObjective",
    "LogisticObjective",
    "GradientOracle",
    "make_dataset",
]

# A minibatch gradient pass gathers at most this many bytes of rows at a
# time, so that its two products read the rows back from cache.  At d = 10^4,
# W = 32 and 16 rows per worker, one 41 MB gather took 3.4 ms per round on a
# 2-core box, against 2.3 ms in pieces of 4 MiB and 2.5 ms worker by worker.
GATHER_BYTES = 1 << 22

# A Gram matrix of at least this side has its top eigenvalue found by Lanczos
# iteration (ARPACK), a smaller one by LAPACK.  On a 2-core box (scipy 1.17,
# OpenBLAS), medians of 7 calls over tall and wide Gaussian designs, LAPACK
# against Lanczos: 1.6-4.5 against 1.9-6.1 ms at side 256, 15-16 against
# 6-12 ms at 512, 43-51 against 26-35 ms at 1024, 342-363 against 101-104 ms
# at 2048.
LANCZOS_MIN_SIDE = 512


class QuadraticObjective:
    """F(x) = 0.5 x'Hx + A'x + B with symmetric positive-definite H.

    H is held in the form the maths uses, its spectrum: H = Q diag(lambda) Q'
    with basis Q, where a basis of None means H = diag(lambda).  An isotropic
    objective stores only lambda, so its loss, gradient and optimum are O(d)
    and it never allocates a d x d array (`H` is None).  A dense objective
    keeps H for its products and finds its eigenbasis with one eigh, on the
    first call to spectrum().
    """

    def __init__(self, H: np.ndarray, A: np.ndarray | None = None, B: float = 0.0):
        H = np.asarray(H, dtype=np.float64)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("H must be a square matrix")
        if not np.allclose(H, H.T, rtol=1e-12, atol=1e-12):
            raise ValueError("H must be symmetric")
        self.H: np.ndarray | None = 0.5 * (H + H.T)
        eigvals = np.linalg.eigvalsh(self.H)
        self._spectrum: tuple[np.ndarray, np.ndarray | None] | None = None
        self._set_terms(H.shape[0], float(eigvals[0]), float(eigvals[-1]), A, B)

    @classmethod
    def isotropic(cls, d: int, lam: float, A: np.ndarray | None = None, B: float = 0.0):
        """H = lam * I, stored as its spectrum alone."""
        if d < 1:
            raise ValueError("dimension must be at least 1")
        obj = cls.__new__(cls)
        obj.H = None
        obj._spectrum = (np.full(d, float(lam)), None)
        obj._set_terms(d, float(lam), float(lam), A, B)
        return obj

    @classmethod
    def random_pd(cls, d: int, mu: float, L: float, rng: np.random.Generator):
        """Random rotation of a spectrum spanning exactly [mu, L]."""
        if d == 1:
            return cls(np.array([[L]]))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        spectrum = np.linspace(mu, L, d)
        return cls((q * spectrum) @ q.T)

    def _set_terms(self, d: int, mu: float, L: float, A, B: float) -> None:
        if mu <= 0:
            raise ValueError(f"H must be positive definite (min eigenvalue {mu})")
        self.d = d
        self.A = np.zeros(d) if A is None else np.asarray(A, dtype=np.float64)
        if self.A.shape != (d,):
            raise ValueError("A must be a length-d vector")
        self.B = float(B)
        self._mu = mu
        self._L = L
        self._x_star: np.ndarray | None = None

    def spectrum(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(eigenvalues, basis) of H; basis None means H = diag(eigenvalues)."""
        if self._spectrum is None:
            self._spectrum = np.linalg.eigh(self.H)
        return self._spectrum

    def loss(self, x: np.ndarray) -> float:
        x = self._check(x)
        if self.H is None:
            return float(0.5 * (self._spectrum[0] * x) @ x + self.A @ x + self.B)
        return float(0.5 * x @ self.H @ x + self.A @ x + self.B)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        if self.H is None:
            return self._spectrum[0] * x + self.A
        return self.H @ x + self.A

    def loss_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(loss(x), gradient(x)).  They stay two products: a dense x'Hx
        computed from Hx would differ from loss(x) in the last bit."""
        return self.loss(x), self.gradient(x)

    def constants(self) -> tuple[float, float]:
        return self._L, self._mu

    def optimum(self) -> np.ndarray:
        if self._x_star is None:
            if self.H is None:
                self._x_star = -self.A / self._spectrum[0]
            else:
                self._x_star = np.linalg.solve(self.H, -self.A)
        return self._x_star

    def optimal_value(self) -> float:
        x_star = self.optimum()
        # F(x*) = 0.5 A'x* + B since Hx* = -A
        return float(0.5 * self.A @ x_star + self.B)

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise ValueError(f"expected a length-{self.d} point, got shape {x.shape}")
        return x


class LogisticObjective:
    """Ridge-regularized logistic regression on a fixed design matrix.

    F(x) = mean_i log(1 + exp(-y_i x_i'x)) + (ridge/2) ||x||^2 with labels
    in {-1, +1}.  Smoothness constant ||X||_op^2 / (4n) + ridge; strong
    convexity equals the ridge weight.

    ||X||_op^2 is the largest eigenvalue of the Gram matrix of X's smaller
    side, X X' when n <= d and X'X otherwise, found after one product.
    Below LANCZOS_MIN_SIDE = 512 one LAPACK call finds that eigenvalue
    alone, in place; from there on a Lanczos iteration (ARPACK's eigsh, to
    machine precision from a fixed start) finds it from a few hundred
    products with the Gram matrix.  Either agrees with the top singular
    value squared to a few ulp, not bit for bit, and the Lanczos value can
    differ from LAPACK's in its last bits (up to tens of ulp).

    scipy is imported by the first LogisticObjective built, not with this
    module, so that runs on quadratics never load it.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, ridge: float = 0.0):
        from scipy.special import expit

        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("features must be an n x d matrix")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be a length-n vector")
        if not np.all(np.abs(y) == 1):
            raise ValueError("labels must be +1 or -1")
        if ridge < 0:
            raise ValueError("ridge must be nonnegative")
        self.X = X
        self.y = y
        self.n, self.d = X.shape
        self.ridge = float(ridge)
        self._expit = expit
        self._L = _top_gram_eigenvalue(X) / (4.0 * self.n) + self.ridge
        self._mu = self.ridge
        self._x_star: np.ndarray | None = None
        self._f_star: float | None = None

    def loss(self, x: np.ndarray) -> float:
        return self.loss_on(slice(None), x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.gradient_on(slice(None), x)

    def loss_on(self, rows, x: np.ndarray) -> float:
        x = self._check(x)
        margins = self.y[rows] * (self.X[rows] @ x)
        data = float(np.mean(np.logaddexp(0.0, -margins)))
        return data + 0.5 * self.ridge * float(x @ x)

    def gradient_on(self, rows, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        Xr = self.X[rows]
        yr = self.y[rows]
        weights = -yr * self._expit(-yr * (Xr @ x))
        return Xr.T @ weights / Xr.shape[0] + self.ridge * x

    def gradients_on(self, rows: np.ndarray, x: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """gradient_on for k row sets at once: rows is a (k, m) index array
        and row j of the (k, d) result is gradient_on(rows[j], x), bit for bit.

        The k * m rows are gathered into buf, a (k, m, d) array the caller
        keeps for reuse.  Indices must lie in [0, n); they are not checked.
        """
        x = self._check(x)
        m = rows.shape[1]
        # with the default mode="raise", take would gather into a temporary
        # first and then copy it into buf
        Xb = np.take(self.X, rows, axis=0, out=buf, mode="clip")
        yb = self.y[rows]
        weights = -yb * self._expit(-yb * (Xb @ x))
        # stacked products, one gemv per row set, as gradient_on computes it
        return (Xb.transpose(0, 2, 1) @ weights[..., None])[..., 0] / m + self.ridge * x

    def loss_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(loss(x), gradient(x)) from one X @ x product: two passes over
        the data instead of three, with the same values bit for bit."""
        x = self._check(x)
        z = self.X @ x
        data = float(np.mean(np.logaddexp(0.0, -(self.y * z))))
        loss = data + 0.5 * self.ridge * float(x @ x)
        weights = -self.y * self._expit(-self.y * z)
        return loss, self.X.T @ weights / self.n + self.ridge * x

    def constants(self) -> tuple[float, float]:
        return self._L, self._mu

    def optimum(self) -> np.ndarray:
        if self._x_star is None:
            from scipy.optimize import minimize

            res = minimize(
                self.loss_and_gradient,
                np.zeros(self.d),
                jac=True,
                method="L-BFGS-B",
                options={"gtol": 1e-12, "maxiter": 5000},
            )
            self._x_star = res.x
        return self._x_star

    def optimal_value(self) -> float:
        if self._f_star is None:
            self._f_star = self.loss(self.optimum())
        return self._f_star

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise ValueError(f"expected a length-{self.d} point, got shape {x.shape}")
        return x


def _top_gram_eigenvalue(X: np.ndarray) -> float:
    """Largest eigenvalue of X X' or X'X, whichever is smaller: ||X||_op^2."""
    G = X @ X.T if X.shape[0] <= X.shape[1] else X.T @ X
    if G.shape[0] >= LANCZOS_MIN_SIDE:
        from scipy.sparse.linalg import eigsh

        if not G.trace():
            # X is zero, and ARPACK cannot restart from a zero product
            return 0.0
        # a fixed start makes the result reproducible, where ARPACK's own
        # random start carries over between calls.  A seeded Gaussian vector,
        # not ones: X X' maps ones to zero whenever X's rows sum to zero.
        v0 = np.random.default_rng(0).standard_normal(G.shape[0])
        top = eigsh(G, k=1, which="LA", tol=0, v0=v0, return_eigenvectors=False)
        return float(top[0])
    from scipy.linalg import eigh

    k = G.shape[0] - 1
    # G is symmetric, so its transpose is the same matrix in Fortran order,
    # which LAPACK overwrites without a copy
    top = eigh(
        G.T, eigvals_only=True, subset_by_index=[k, k], overwrite_a=True, check_finite=False
    )
    return float(top[0])


def make_dataset(
    n: int, d: int, seed: int, label_noise: float = 0.2
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded synthetic classification data: standard-normal features and
    labels from a noisy linear rule."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d) / np.sqrt(d)
    y = np.sign(X @ w_true + label_noise * rng.standard_normal(n))
    y[y == 0] = 1.0
    return X, y


class GradientOracle:
    """Unbiased per-worker stochastic gradient source.

    noise="gaussian": returns grad F(x) + eps with eps ~ N(0, (sigma^2/d) I),
    so E||g - grad F||^2 equals sigma^2 exactly (sigma = 0 degenerates to the
    exact gradient).

    noise="minibatch": each worker owns a contiguous equal shard of the
    dataset rows and samples batch_size of them without replacement; a batch
    covering the whole shard is deterministic.  Requires a dataset-backed
    objective.  The per-worker second moment is not prescribed here; measure
    it with calibrate().

    A sample is split in two: draw() makes one worker's random draws, and
    gradients() turns a list of draws into their gradients in one batched
    pass.  sample() is the batch of one.
    """

    def __init__(
        self,
        objective,
        workers: int,
        noise: str = "gaussian",
        sigma: float = 0.0,
        batch_size: int = 32,
        shard_mode: str = "split",
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        if noise not in ("gaussian", "minibatch"):
            raise ValueError(f"unknown noise model {noise!r}")
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        self.objective = objective
        self.W = workers
        self.noise = noise
        self.sigma = float(sigma)
        self.batch_size = int(batch_size)
        self.shards: list[np.ndarray] | None = None
        if noise == "minibatch":
            if not hasattr(objective, "n"):
                raise ValueError("minibatch noise requires a dataset-backed objective")
            n = objective.n
            if shard_mode == "replicate":
                self.shards = [np.arange(n) for _ in range(workers)]
            elif shard_mode == "split":
                if n % workers != 0:
                    raise ValueError(
                        f"dataset size {n} does not split evenly over {workers} workers"
                    )
                size = n // workers
                self.shards = [
                    np.arange(i * size, (i + 1) * size) for i in range(workers)
                ]
            else:
                raise ValueError(f"unknown shard mode {shard_mode!r}")
            if any(len(s) == 0 for s in self.shards):
                raise ValueError("a worker received an empty shard")
            if self.batch_size < 1:
                raise ValueError("batch_size must be at least 1")

        self._gather: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.objective.d

    def draw(self, worker: int, rng: np.random.Generator) -> np.ndarray | None:
        """The random part of one `worker` sample, drawn from rng.

        Gaussian: the length-d noise vector, or None when sigma is 0 (nothing
        is drawn).  Minibatch: the batch's row indices, or the whole shard
        when the batch covers it (nothing is drawn).
        """
        if not 0 <= worker < self.W:
            raise ValueError(f"worker index {worker} out of range [0, {self.W})")
        if self.noise == "gaussian":
            if self.sigma > 0:
                return rng.normal(0.0, self.sigma / np.sqrt(self.d), size=self.d)
            return None
        shard = self.shards[worker]
        if self.batch_size >= len(shard):
            return shard
        return rng.choice(shard, size=self.batch_size, replace=False)

    def gradients(
        self, x: np.ndarray, draws: list, exact: np.ndarray | None = None
    ) -> np.ndarray:
        """The sampled gradients at x for a list of k draws, as a (k, d) array.

        Row j is the gradient that draws[j] samples, bit for bit the same as
        computing it alone.  `exact`, if given, is the exact gradient at x,
        which the Gaussian model then does not recompute.  A minibatch pass
        gathers its rows into a buffer the oracle keeps, a few workers at a
        time: never more than the dataset's n rows, nor more than
        GATHER_BYTES unless one worker's rows alone are larger.
        """
        if self.noise == "gaussian":
            g = self.objective.gradient(x) if exact is None else exact
            if self.sigma == 0:
                return np.tile(g, (len(draws), 1))
            out = np.stack(draws)
            out += g
            return out
        idx = np.stack(draws)
        k, m = idx.shape
        # at most n rows per gather: a replicated full-batch round would
        # otherwise hold W copies of the design matrix
        chunk = max(1, min(self.objective.n // m, GATHER_BYTES // (m * self.d * 8)))
        if self._gather is None or self._gather.shape[0] < min(k, chunk) * m:
            self._gather = np.empty((min(k, chunk) * m, self.d))
        out = np.empty((k, self.d))
        for lo in range(0, k, chunk):
            rows = idx[lo : lo + chunk]
            buf = self._gather[: rows.size].reshape(*rows.shape, self.d)
            out[lo : lo + len(rows)] = self.objective.gradients_on(rows, x, buf)
        return out

    def sample(
        self,
        worker: int,
        x: np.ndarray,
        rng: np.random.Generator,
        exact: np.ndarray | None = None,
    ) -> np.ndarray:
        """One draw for `worker` at x: the batch of one of draw and gradients."""
        return self.gradients(x, [self.draw(worker, rng)], exact)[0]

    def calibrate(
        self, x: np.ndarray, draws: int, rng: np.random.Generator
    ) -> tuple[float, list[float]]:
        """Measure E||g - grad F(x)||^2 per worker; returns (max, per-worker).

        The max across workers is the effective sampling-noise bound used by
        the theory oracles when the model does not prescribe one.  Worker i's
        draws all come before worker i+1's; they are evaluated W at a time,
        so calibration holds no more gradients at once than a round does.
        """
        ref = self.objective.gradient(x)
        per_worker = []
        for i in range(self.W):
            total = 0.0
            for lo in range(0, draws, self.W):
                picks = [self.draw(i, rng) for _ in range(min(self.W, draws - lo))]
                for diff in self.gradients(x, picks, ref) - ref:
                    total += float(diff @ diff)
            per_worker.append(total / draws)
        return max(per_worker), per_worker
