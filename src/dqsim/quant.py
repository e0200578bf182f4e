"""Element-wise uniform stochastic gradient quantization and its wire codec.

A gradient vector is compressed by transmitting its l_p norm at full float
precision plus, per coordinate, one sign bit and a (b-1)-bit level index into
a uniform grid of s = 2**(b-1) - 1 steps.  The level is drawn stochastically
so that dequantization is unbiased.  A separate 1-bit-per-coordinate sign
codec with mean-absolute-value scaling is provided as the aggressive
baseline.

Every codec operation also takes a round's W frames at once, as (W, d)
arrays in a QuantizedBatch; a single frame is the batch of one, with the same
arithmetic and the same bytes on the wire.

All randomness comes from caller-supplied numpy Generators (or, for a batch,
rounding uniforms the caller drew from them), so every operation here is pure
and safe to run concurrently with distinct streams.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GradientVector",
    "QuantizerConfig",
    "QuantizedGradient",
    "QuantizedBatch",
    "VarianceBudget",
    "FramingError",
    "CorruptionError",
    "lp_norm",
    "quantize",
    "dequantize",
    "dequantized_draws",
    "sign_quantize",
    "encode",
    "decode",
    "frame_bytes",
    "variance_bound",
    "aggregate_stats",
]


class FramingError(ValueError):
    """Encoded frame has the wrong length for the declared (d, bits, b_pre)."""


class CorruptionError(ValueError):
    """Decoded frame contains field values no encoder could have produced."""


def lp_norm(values: np.ndarray, p: float) -> float:
    """l_p norm of a 1-D vector; p may be any positive real or inf."""
    if not p > 0:
        raise ValueError(f"norm order must be positive, got {p}")
    return float(np.linalg.norm(values, ord=p))


@dataclass(frozen=True, eq=False)
class GradientVector:
    """Dense gradient of dimension d with its l_p norm cached at construction.

    The cached norm is np.linalg.norm's.  For p = 2 that is sqrt(x.dot(x)),
    a BLAS ddot whose summation order is the BLAS kernel's; p = inf is the
    largest magnitude, and any other p is summed by numpy's pairwise
    summation.  Each is accurate to a few ulp of the exact value.
    """

    values: np.ndarray
    p: float = 2.0
    cached_norm: float = field(init=False)

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 1 or values.size < 1:
            raise ValueError("gradient must be a 1-D vector with d >= 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cached_norm", lp_norm(values, self.p))

    @property
    def d(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class QuantizerConfig:
    """Codec parameters: bit width b, norm order p, and norm precision b_pre.

    bits >= 2 selects the uniform stochastic codec with s = 2**(b-1) - 1
    levels.  bits == 1 is reserved for the sign codec (see sign_quantize);
    the uniform quantizer rejects it because s would be 0.
    """

    bits: int
    p: float = 2.0
    b_pre: int = 32

    def __post_init__(self):
        if not isinstance(self.bits, int) or not 1 <= self.bits <= 32:
            raise ValueError(f"bits must be an integer in [1, 32], got {self.bits}")
        if self.b_pre not in (32, 64):
            raise ValueError(f"b_pre must be 32 or 64, got {self.b_pre}")
        if not self.p > 0:
            raise ValueError(f"norm order must be positive, got {self.p}")

    @classmethod
    def sign_only(cls, p: float = 2.0, b_pre: int = 32) -> "QuantizerConfig":
        return cls(bits=1, p=p, b_pre=b_pre)

    @property
    def is_sign_only(self) -> bool:
        return self.bits == 1

    @property
    def levels(self) -> int:
        """Level count s = 2**(bits-1) - 1 of the uniform grid."""
        if self.bits < 2:
            raise ValueError("sign-only config has no uniform level count")
        return (1 << (self.bits - 1)) - 1


def _level_count(bits: int) -> int:
    # s = 2**(bits-1) - 1 for the uniform codec; the sign codec's levels are all 1
    return 1 if bits == 1 else (1 << (bits - 1)) - 1


@dataclass(eq=False)
class QuantizedGradient:
    """The wire unit: a norm scalar plus per-coordinate sign and level index.

    For bits >= 2 the dequantized coordinate j is norm * sign_j * level_j / s
    with s = 2**(bits-1) - 1.  For the sign codec (bits == 1) every level is
    1 and norm holds the mean-absolute-value scale, so the same formula
    applies with s = 1.  The norm is stored already rounded to the b_pre wire
    precision, which is what makes decode(encode(q)) an exact identity.
    """

    norm: float
    signs: np.ndarray  # int8, each +1 or -1
    levels: np.ndarray  # uint32, each in [0, s]
    bits: int
    b_pre: int = 32

    def __post_init__(self):
        self.signs = np.asarray(self.signs, dtype=np.int8)
        self.levels = np.asarray(self.levels, dtype=np.uint32)
        if self.signs.shape != self.levels.shape or self.signs.ndim != 1:
            raise ValueError("signs and levels must be 1-D arrays of equal length")
        if self.signs.size < 1:
            raise ValueError("empty quantized gradient")
        if not (math.isfinite(self.norm) and self.norm >= 0.0):
            raise ValueError(f"norm must be finite and nonnegative, got {self.norm}")
        if not 1 <= self.bits <= 32:
            raise ValueError(f"bits must be in [1, 32], got {self.bits}")
        if self.b_pre not in (32, 64):
            raise ValueError(f"b_pre must be 32 or 64, got {self.b_pre}")
        if self.levels.max() > self.level_count:
            raise ValueError("level index exceeds the grid size s")
        if not (np.abs(self.signs) == 1).all():
            raise ValueError("signs must be +1 or -1")

    @classmethod
    def _trusted(cls, norm, signs, levels, bits, b_pre) -> "QuantizedGradient":
        # fast path for quantize/decode, whose outputs are well-formed by
        # construction; the public constructor validates everything
        obj = object.__new__(cls)
        obj.norm = norm
        obj.signs = signs
        obj.levels = levels
        obj.bits = bits
        obj.b_pre = b_pre
        return obj

    @property
    def d(self) -> int:
        return self.levels.size

    @property
    def level_count(self) -> int:
        """Grid size s used by the dequantization formula (1 for sign codec)."""
        return _level_count(self.bits)

    @property
    def encoded_bits(self) -> int:
        """Exact payload size in bits before byte padding: d*bits + b_pre."""
        return self.d * self.bits + self.b_pre

    def as_batch(self) -> "QuantizedBatch":
        """This frame as a batch of one; the arrays are views, not copies."""
        return QuantizedBatch(
            np.array([self.norm]), self.signs[None], self.levels[None], self.bits, self.b_pre
        )


@dataclass(eq=False)
class QuantizedBatch:
    """W frames of one width as arrays, row i being frame i.

    norms is a (W,) float64 array of wire-precision norms; signs (int8, each
    +1 or -1) and levels (uint32, each in [0, s]) are (W, d).  Row i
    dequantizes by the QuantizedGradient formula.  Nothing is validated here:
    quantize, sign_quantize and decode build well-formed batches, stack checks
    that its frames agree, and encode rejects a level above s.
    """

    norms: np.ndarray
    signs: np.ndarray
    levels: np.ndarray
    bits: int
    b_pre: int = 32

    @classmethod
    def stack(cls, frames: Sequence[QuantizedGradient]) -> "QuantizedBatch":
        """The batch of frames that share d, bits and b_pre, in the given order."""
        if not frames:
            raise ValueError("no frames to stack")
        first = frames[0]
        if any((q.d, q.bits, q.b_pre) != (first.d, first.bits, first.b_pre) for q in frames):
            raise ValueError("frames differ in dimension, bits or b_pre")
        return cls(
            np.array([q.norm for q in frames], dtype=np.float64),
            np.stack([q.signs for q in frames]),
            np.stack([q.levels for q in frames]),
            first.bits,
            first.b_pre,
        )

    @property
    def level_count(self) -> int:
        return _level_count(self.bits)

    def frame(self, i: int) -> QuantizedGradient:
        """Frame i; its arrays are views into the batch."""
        return QuantizedGradient._trusted(
            float(self.norms[i]), self.signs[i], self.levels[i], self.bits, self.b_pre
        )

    def dequantized(self) -> np.ndarray:
        """(W, d) array of norm_i * sign_ij * level_ij / s."""
        scaled_signs = self.norms[:, None] * self.signs.astype(np.float64)
        return scaled_signs * self.levels / self.level_count


@dataclass(frozen=True)
class VarianceBudget:
    """The two additive noise contributions to the aggregated gradient.

    sampling_term is sigma**2 / W; quantization_term is
    d * gbar**2 / (4 W (2**(b-1) - 1)**2).  Their sum bounds the trace of the
    aggregate's covariance.
    """

    sampling_term: float
    quantization_term: float

    def __post_init__(self):
        if self.sampling_term < 0 or self.quantization_term < 0:
            raise ValueError("variance terms must be nonnegative")

    @classmethod
    def for_aggregate(
        cls, sigma: float, W: int, d: int, gbar: float, bits: int
    ) -> "VarianceBudget":
        if bits < 2:
            raise ValueError("quantization term needs bits >= 2")
        if W < 1:
            raise ValueError("need at least one worker")
        s = (1 << (bits - 1)) - 1
        return cls(
            sampling_term=sigma * sigma / W,
            quantization_term=d * gbar * gbar / (4.0 * W * s * s),
        )

    @property
    def total(self) -> float:
        return self.sampling_term + self.quantization_term


def _wire_norms(norms: np.ndarray, b_pre: int) -> np.ndarray:
    # The transmitted norm only has b_pre bits; rounding here (rather than in
    # encode) keeps the in-memory object identical to its wire round-trip.
    if b_pre == 32:
        return norms.astype(np.float32).astype(np.float64)
    return norms


def _rows(g, p: float | None = None):
    """(values as a (W, d) array, their l_p norms); one vector is W = 1.

    g is one GradientVector, a sequence of them, or a (W, d) float array of W
    gradients.  The norms are computed only when p is given.  Row i's norm is
    gradient i's own 1-D lp_norm (a GradientVector's cached norm when its p
    matches), so it is the same number whether the row is alone or in a
    batch.
    """
    if isinstance(g, np.ndarray):
        if g.ndim != 2 or g.size == 0:
            raise ValueError(f"expected a nonempty (W, d) array of gradients, got {g.shape}")
        gs, values = None, np.asarray(g, dtype=np.float64)
    elif isinstance(g, GradientVector):
        gs, values = [g], g.values[None]
    else:
        gs = list(g)
        if not gs:
            raise ValueError("no gradients to quantize")
        values = np.stack([v.values for v in gs])
    if not np.isfinite(values).all():
        raise ValueError("gradient has a non-finite coordinate")
    if p is None:
        return values, None
    if gs is None:
        return values, [lp_norm(row, p) for row in values]
    return values, [v.cached_norm if v.p == p else lp_norm(v.values, p) for v in gs]


def _signs(values: np.ndarray) -> np.ndarray:
    # sign of an exact zero is fixed to +1; the level there is 0 anyway
    return 1 - 2 * (values < 0).view(np.int8)


def _prepare(g, cfg: QuantizerConfig):
    """Shared setup for quantize and dequantized_draws over g's (W, d) values.

    Returns (values, norms, signs, low, frac) where low + Bernoulli(frac) is
    the level.
    """
    s = cfg.levels
    values, norms = _rows(g, cfg.p)
    norms = _wire_norms(np.array(norms), cfg.b_pre)
    if not np.isfinite(norms).all():
        raise ValueError("gradient norm overflows the wire precision")
    zero = norms == 0.0
    # multiply by s before dividing so ratios that sit exactly on a grid
    # point stay exact and round deterministically (frac == 0)
    scaled = np.abs(values) * s
    scaled /= np.where(zero, 1.0, norms)[:, None]
    np.clip(scaled, 0.0, float(s), out=scaled)
    # a zero-norm row gets levels 0 without its ratio being used
    scaled[zero] = 0.0
    low = np.floor(scaled)
    frac = scaled - low
    return values, norms, _signs(values), low, frac


def quantize(
    g: GradientVector | Sequence[GradientVector] | np.ndarray,
    cfg: QuantizerConfig,
    rng: np.random.Generator | np.ndarray,
) -> QuantizedGradient | QuantizedBatch:
    """Stochastically quantize g onto the uniform grid scaled by its norm.

    A coordinate whose magnitude ratio lies in [l/s, (l+1)/s) maps to level
    l+1 with probability s*|g_j|/norm - l and to l otherwise, which makes
    dequantization unbiased.  A zero-norm input gets all-zero levels.

    g is one GradientVector, quantized to a QuantizedGradient with d
    uniforms drawn from the Generator rng, or W gradients, as a sequence of
    GradientVectors or a (W, d) array, quantized to a QuantizedBatch.  For a
    batch rng is either a Generator or the (W, d) array of rounding uniforms,
    row i for gradient i; a row drawn with Generator.random(out=row) holds the
    same doubles that quantizing gradient i alone would draw.
    """
    if cfg.is_sign_only:
        raise ValueError("sign-only config: use sign_quantize")
    values, norms, signs, low, frac = _prepare(g, cfg)
    if isinstance(rng, np.random.Generator):
        u = rng.random(values.shape)
    else:
        u = np.asarray(rng)
        if u.shape != values.shape:
            raise ValueError(f"expected {values.shape} rounding uniforms, got {u.shape}")
    levels = (low + (u < frac)).astype(np.uint32)
    batch = QuantizedBatch(norms, signs, levels, cfg.bits, cfg.b_pre)
    return batch.frame(0) if isinstance(g, GradientVector) else batch


def dequantized_draws(
    g: GradientVector, cfg: QuantizerConfig, rng: np.random.Generator, n: int
) -> np.ndarray:
    """n independent quantize->dequantize draws of g, as an (n, d) array.

    Statistically identical to stacking n quantize/dequantize round trips;
    batched here so Monte-Carlo checks over 1e5+ draws stay cheap.
    """
    if cfg.is_sign_only:
        raise ValueError("sign-only config: use sign_quantize")
    _, norms, signs, low, frac = _prepare(g, cfg)
    u = rng.random((n, g.d))
    levels = low + (u < frac)
    return ((norms[0] * signs) * levels) / cfg.levels


def dequantize(q: QuantizedGradient) -> GradientVector:
    """Deterministic inverse map: values_j = norm * sign_j * level_j / s."""
    return GradientVector(q.as_batch().dequantized()[0])


def sign_quantize(
    g: GradientVector | Sequence[GradientVector] | np.ndarray, b_pre: int = 32
) -> QuantizedGradient | QuantizedBatch:
    """1-bit-per-coordinate codec: transmit signs plus a mean-|g| scale.

    Dequantizes to (||g||_1 / d) * sign(g_j), preserving the average
    magnitude.  Deterministic; costs d + b_pre bits per frame.  g is one
    GradientVector (giving a QuantizedGradient) or W gradients, as a sequence
    of them or a (W, d) array (giving a QuantizedBatch).
    """
    values, _ = _rows(g)
    scales = _wire_norms(np.sum(np.abs(values), axis=1) / values.shape[1], b_pre)
    levels = np.ones(values.shape, dtype=np.uint32)
    batch = QuantizedBatch(scales, _signs(values), levels, 1, b_pre)
    return batch.frame(0) if isinstance(g, GradientVector) else batch


def frame_bytes(d: int, bits: int, b_pre: int) -> int:
    """Frame length in bytes: b_pre/8 header + ceil(d*bits/8) payload."""
    return b_pre // 8 + (d * bits + 7) // 8


def _code_type(bits: int) -> np.dtype:
    """Smallest big-endian unsigned integer type that holds a bits-wide code."""
    return np.dtype(">u1" if bits <= 8 else ">u2" if bits <= 16 else ">u4")


def encode(q: QuantizedGradient | QuantizedBatch) -> bytes:
    """Pack q into its exact bit layout; a batch packs to its W frames back
    to back, each laid out exactly as if encoded alone.

    Layout: the norm as a big-endian b_pre-bit IEEE float, then for each
    coordinate one sign bit (1 = negative) followed by bits-1 level bits,
    most significant bit first, zero-padded to a whole byte at the end.
    """
    if isinstance(q, QuantizedGradient):
        q = q.as_batch()
    b, (W, d) = q.bits, q.levels.shape
    if q.levels.max() > q.level_count:
        raise ValueError("level index exceeds the grid size s")
    header = q.norms.astype(">f4" if q.b_pre == 32 else ">f8")
    if q.b_pre == 32:
        for wire, norm in zip(header.tolist(), q.norms.tolist()):
            if math.isinf(wire) and math.isfinite(norm):
                raise OverflowError("float too large to pack with f format")
    # Each level is written big-endian into the smallest integer type that
    # holds a b-bit code and unpacked to one byte per bit.  A level is below
    # 2**(b-1), so bit plane b-1 from the low end is free and takes the sign
    # bit; cut to the low b planes, this is the uint8 (W, d, b) array of the
    # codes' bits, which packbits packs row by row.  The few numpy calls cost
    # the same for any b.
    code_type = _code_type(b)
    width = 8 * code_type.itemsize
    planes = np.unpackbits(q.levels.astype(code_type).view(np.uint8)).reshape(W, d, width)
    planes[:, :, width - b] = q.signs < 0
    payload = np.packbits(planes[:, :, width - b :].reshape(W, d * b), axis=1)
    return np.concatenate([header.view(np.uint8).reshape(W, -1), payload], axis=1).tobytes()


def decode(
    data: bytes, d: int, cfg: QuantizerConfig, frames: int | None = None
) -> QuantizedGradient | QuantizedBatch:
    """Exact inverse of encode; padding bits are ignored.

    data is one frame, decoded to a QuantizedGradient, or, when frames = W
    is given, W frames back to back, decoded to a QuantizedBatch.  Raises
    FramingError on a length mismatch and CorruptionError when the decoded
    fields of any frame could not have come from a well-formed frame.
    """
    b = cfg.bits
    W = 1 if frames is None else frames
    expected = frame_bytes(d, b, cfg.b_pre)
    if len(data) != W * expected:
        raise FramingError(
            f"frames are {len(data)} bytes, expected {W} x {expected} for d={d}, "
            f"bits={b}, b_pre={cfg.b_pre}"
        )
    # the W headers and the W payloads as strided views of data
    nb = cfg.b_pre // 8
    header_type = ">f4" if cfg.b_pre == 32 else ">f8"
    norms = np.ndarray((W,), header_type, data, 0, (expected,)).astype(np.float64)
    for i, norm in enumerate(norms.tolist()):
        if not 0.0 <= norm < math.inf:
            raise CorruptionError(f"decoded norm {norm} of frame {i} is not a valid scale")
    payload = np.ndarray((W, expected - nb), np.uint8, data, nb, (expected, 1))
    # the inverse of encode's planes: each code's b bits go to the low end of
    # a zeroed big-endian integer; with the sign plane read and cleared,
    # packbits assembles the levels.  A (b-1)-bit level field cannot exceed
    # s, so levels need no range check.
    code_type = _code_type(b)
    width = 8 * code_type.itemsize
    planes = np.zeros((W, d, width), dtype=np.uint8)
    planes[:, :, width - b :] = np.unpackbits(payload, axis=1, count=d * b).reshape(W, d, b)
    sign_plane = planes[:, :, width - b]
    signs = -sign_plane.view(np.int8) | 1  # sign bit 1 is -1, 0 is +1
    if b == 1:
        levels = np.ones((W, d), dtype=np.uint32)
    else:
        sign_plane[...] = 0
        levels = np.packbits(planes).view(code_type).reshape(W, d).astype(np.uint32)
    batch = QuantizedBatch(norms, signs, levels, b, cfg.b_pre)
    return batch if frames is not None else batch.frame(0)


def variance_bound(cfg: QuantizerConfig, g: GradientVector) -> float:
    """Worst-case trace of the single-vector quantization covariance.

    Equals d * ||g||_p**2 / (4 s**2); the per-coordinate Bernoulli variance
    is at most (1/4) (norm/s)**2.
    """
    s = cfg.levels
    norm = g.cached_norm if g.p == cfg.p else lp_norm(g.values, cfg.p)
    return g.d * norm * norm / (4.0 * s * s)


def aggregate_stats(gs: list[GradientVector], W: int | None = None) -> float:
    """Root-mean-square of the workers' gradient norms (the scale statistic
    that drives dynamic bit allocation)."""
    if not gs:
        raise ValueError("aggregate_stats needs at least one gradient")
    if W is not None and len(gs) != W:
        raise ValueError(f"expected {W} gradients, got {len(gs)}")
    return math.sqrt(sum(g.cached_norm**2 for g in gs) / len(gs))
