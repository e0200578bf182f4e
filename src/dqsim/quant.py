"""Element-wise uniform stochastic gradient quantization and its wire codec.

A gradient, a 1-D float array, is compressed by transmitting its l_p norm at
full float precision plus, per coordinate, one sign bit and a (b-1)-bit level
index into a uniform grid of s = 2**(b-1) - 1 steps.  The level is drawn
stochastically so that dequantization is unbiased.  A separate
1-bit-per-coordinate sign codec with mean-absolute-value scaling is provided
as the aggressive baseline.

One type, QuantizedGradient, holds either one frame or a round's W frames:
its arrays take the shape of the gradient they came from, and every codec
operation works over the trailing axis, with the same arithmetic and the
same bytes on the wire for a frame alone or as a row of a round.

All randomness comes from caller-supplied numpy Generators (or rounding
uniforms the caller drew from them), so every operation here is pure and
safe to run concurrently with distinct streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizerConfig",
    "QuantizedGradient",
    "FramingError",
    "CorruptionError",
    "WireRangeError",
    "lp_norm",
    "quantize",
    "dequantize",
    "dequantized_draws",
    "sign_quantize",
    "encode",
    "decode",
    "frame_bytes",
    "variance_bound",
]


class FramingError(ValueError):
    """Encoded frame has the wrong length for the declared (d, bits, b_pre)."""


class CorruptionError(ValueError):
    """Decoded frame contains field values no encoder could have produced."""


class WireRangeError(ValueError):
    """A gradient the wire cannot carry: a non-finite coordinate, or a norm
    or scale beyond the b_pre-bit float."""


def lp_norm(values: np.ndarray, p: float) -> float:
    """l_p norm of a 1-D vector; p may be any positive real or inf."""
    if not p > 0:
        raise ValueError(f"norm order must be positive, got {p}")
    return float(np.linalg.norm(values, ord=p))


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

    @property
    def levels(self) -> int:
        """Level count s = 2**(bits-1) - 1 of the uniform grid."""
        if self.bits < 2:
            raise ValueError("sign-only config has no uniform level count")
        return (1 << (self.bits - 1)) - 1


@dataclass(eq=False)
class QuantizedGradient:
    """The wire unit: a norm scalar plus per-coordinate sign and level index.

    For bits >= 2 the dequantized coordinate j is norm * sign_j * level_j / s
    with s = 2**(bits-1) - 1.  For the sign codec (bits == 1) every level is
    1 and norm holds the mean-absolute-value scale, so the same formula
    applies with s = 1.  The norm is stored already rounded to the b_pre wire
    precision, which is what makes decode(encode(q)) an exact identity.

    One frame has a float norm and (d,) signs and levels.  A round's W frames
    have a (W,) norm array and (W, d) signs and levels, row i being frame i.
    """

    norm: float | np.ndarray
    signs: np.ndarray  # int8, each +1 or -1
    levels: np.ndarray  # uint32, each in [0, s]
    bits: int
    b_pre: int = 32

    def __post_init__(self):
        self.signs = np.asarray(self.signs, dtype=np.int8)
        self.levels = np.asarray(self.levels, dtype=np.uint32)
        if self.signs.shape != self.levels.shape or self.signs.ndim not in (1, 2):
            raise ValueError("signs and levels must be 1-D or (W, d) arrays of equal shape")
        if self.signs.size < 1:
            raise ValueError("empty quantized gradient")
        if self.signs.ndim == 1:
            # a scalar check: checking an array norm makes a frame twice as dear to build
            valid = math.isfinite(self.norm) and self.norm >= 0.0
        else:
            self.norm = np.asarray(self.norm, dtype=np.float64)
            if self.norm.shape != self.signs.shape[:1]:
                raise ValueError(f"expected {len(self.signs)} norms, got shape {self.norm.shape}")
            valid = bool(np.all(np.isfinite(self.norm) & (self.norm >= 0.0)))
        if not valid:
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
    def _trusted(cls, norms, signs, levels, bits, b_pre, shape) -> "QuantizedGradient":
        # quantize, sign_quantize and decode work on (W, d) rows, well-formed
        # by construction, so nothing is validated here.  shape is (d,) for
        # one frame, whose norm is then a Python float, or (W, d) for a round.
        obj = object.__new__(cls)
        obj.norm = norms if len(shape) == 2 else float(norms[0])
        obj.signs = signs.reshape(shape)
        obj.levels = levels.reshape(shape)
        obj.bits, obj.b_pre = bits, b_pre
        return obj

    @property
    def d(self) -> int:
        return self.levels.shape[-1]

    @property
    def level_count(self) -> int:
        """Grid size s used by the dequantization formula (1 for sign codec)."""
        return 1 if self.bits == 1 else (1 << (self.bits - 1)) - 1

    @property
    def encoded_bits(self) -> int:
        """Exact payload size in bits before byte padding: d*bits + b_pre per
        frame, summed over a round's frames."""
        return self.levels.size // self.d * (self.d * self.bits + self.b_pre)


def _wire_norms(norms: np.ndarray, b_pre: int) -> np.ndarray:
    # The transmitted norm only has b_pre bits; rounding here (rather than in
    # encode) keeps the in-memory object identical to its wire round-trip.
    if b_pre == 32:
        norms = norms.astype(np.float32).astype(np.float64)
    if not np.isfinite(norms).all():
        raise WireRangeError("gradient norm overflows the wire precision")
    return norms


def _rows(g) -> np.ndarray:
    """g as a (W, d) float array: a 1-D gradient is one row.

    Raises ValueError unless g is a nonempty 1-D gradient or (W, d) array of
    gradients, and WireRangeError unless every coordinate is finite.
    """
    values = np.asarray(g, dtype=np.float64)
    if values.ndim not in (1, 2) or values.size == 0:
        raise ValueError(
            f"expected a nonempty 1-D gradient or (W, d) array of them, got shape {values.shape}"
        )
    if not np.isfinite(values).all():
        raise WireRangeError("gradient has a non-finite coordinate")
    return np.atleast_2d(values)


def _signs(values: np.ndarray) -> np.ndarray:
    # sign of an exact zero is fixed to +1; the level there is 0 anyway
    return 1 - 2 * (values < 0).view(np.int8)


def _prepare(g, cfg: QuantizerConfig):
    """Shared setup for quantize and dequantized_draws over g's (W, d) values:
    (norms, signs, low, frac), where the level is low + Bernoulli(frac)."""
    s = cfg.levels
    values = _rows(g)
    # row i's norm is that of gradient i alone, so a row quantizes the same
    # whether it is sent alone or in a round.  A norm that overflows raises
    # WireRangeError, so numpy's overflow warning would only repeat it.
    with np.errstate(over="ignore"):
        norms = _wire_norms(np.array([lp_norm(row, cfg.p) for row in values]), cfg.b_pre)
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
    return norms, _signs(values), low, frac


def quantize(
    g: np.ndarray,
    cfg: QuantizerConfig,
    rng: np.random.Generator | np.ndarray,
) -> QuantizedGradient:
    """Stochastically quantize g onto the uniform grid scaled by its norm.

    A coordinate whose magnitude ratio lies in [l/s, (l+1)/s) maps to level
    l+1 with probability s*|g_j|/norm - l and to l otherwise, which makes
    dequantization unbiased.  A zero-norm input gets all-zero levels.

    g is one 1-D gradient, quantized to one frame, or a (W, d) array of W
    gradients, quantized to a round of W frames.  rng is either a Generator or
    the array of rounding uniforms, shaped like g.  Row i of a round's
    uniforms, drawn with Generator.random(out=row), holds the same doubles
    that quantizing gradient i alone would draw.  Raises WireRangeError for a
    gradient the wire cannot carry.
    """
    norms, signs, low, frac = _prepare(g, cfg)
    shape = np.shape(g)
    if isinstance(rng, np.random.Generator):
        u = rng.random(shape)
    else:
        u = np.asarray(rng)
        if u.shape != shape:
            raise ValueError(f"expected {shape} rounding uniforms, got {u.shape}")
    levels = (low + (u < frac)).astype(np.uint32)
    return QuantizedGradient._trusted(norms, signs, levels, cfg.bits, cfg.b_pre, shape)


def dequantized_draws(
    g: np.ndarray, cfg: QuantizerConfig, rng: np.random.Generator, n: int
) -> np.ndarray:
    """n independent quantize->dequantize draws of the 1-D gradient g, as an
    (n, d) array: statistically identical to stacking n round trips, batched
    so Monte-Carlo checks over 1e5+ draws stay cheap."""
    if np.ndim(g) != 1:
        raise ValueError("expected one 1-D gradient")
    norms, signs, low, frac = _prepare(g, cfg)
    u = rng.random((n, low.shape[1]))
    levels = low + (u < frac)
    return ((norms[0] * signs) * levels) / cfg.levels


def dequantize(q: QuantizedGradient) -> np.ndarray:
    """Deterministic inverse map: values_j = norm * sign_j * level_j / s, an
    array shaped like q's levels (row i from norm i for a round)."""
    scaled_signs = np.asarray(q.norm)[..., None] * q.signs.astype(np.float64)
    return scaled_signs * q.levels / q.level_count


def sign_quantize(g: np.ndarray, b_pre: int = 32) -> QuantizedGradient:
    """1-bit-per-coordinate codec: transmit signs plus a mean-|g| scale.

    Dequantizes to (||g||_1 / d) * sign(g_j), preserving the average
    magnitude.  Deterministic; costs d + b_pre bits per frame.  g is one 1-D
    gradient, giving one frame, or a (W, d) array of W gradients, giving a
    round of W frames.  Raises WireRangeError as quantize does.
    """
    values = _rows(g)
    with np.errstate(over="ignore"):  # an overflowing scale raises, as in quantize
        scales = _wire_norms(np.sum(np.abs(values), axis=1) / values.shape[1], b_pre)
    levels = np.ones(values.shape, dtype=np.uint32)
    return QuantizedGradient._trusted(scales, _signs(values), levels, 1, b_pre, np.shape(g))


def frame_bytes(d: int, bits: int, b_pre: int) -> int:
    """Frame length in bytes: b_pre/8 header + ceil(d*bits/8) payload."""
    return b_pre // 8 + (d * bits + 7) // 8


def _code_type(bits: int) -> np.dtype:
    """Smallest big-endian unsigned integer type that holds a bits-wide code."""
    return np.dtype(">u1" if bits <= 8 else ">u2" if bits <= 16 else ">u4")


def encode(q: QuantizedGradient) -> bytes:
    """Pack q into its exact bit layout; a round packs to its W frames back
    to back, each laid out exactly as if encoded alone.

    Layout: the norm as a big-endian b_pre-bit IEEE float, then for each
    coordinate one sign bit (1 = negative) followed by bits-1 level bits,
    most significant bit first, zero-padded to a whole byte at the end.
    """
    b, d = q.bits, q.d
    if q.levels.max() > q.level_count:
        raise ValueError("level index exceeds the grid size s")
    norms = np.ravel(q.norm)
    W = norms.size
    header = norms.astype(">f4" if q.b_pre == 32 else ">f8")
    if q.b_pre == 32:
        for wire, norm in zip(header.tolist(), norms.tolist()):
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
) -> QuantizedGradient:
    """Exact inverse of encode; padding bits are ignored.

    data is one frame, decoded to a float norm and (d,) arrays, or, when
    frames = W is given, W frames back to back, decoded to a round.  Raises
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
    shape = (d,) if frames is None else (W, d)
    return QuantizedGradient._trusted(norms, signs, levels, b, cfg.b_pre, shape)


def variance_bound(cfg: QuantizerConfig, g: np.ndarray) -> float:
    """Worst-case trace of the quantization covariance of the 1-D gradient g.

    Equals d * ||g||_p**2 / (4 s**2); the per-coordinate Bernoulli variance
    is at most (1/4) (norm/s)**2.
    """
    if np.ndim(g) != 1:
        raise ValueError("expected one 1-D gradient")
    s = cfg.levels
    values = _rows(g)[0]
    norm = lp_norm(values, cfg.p)
    return values.size * norm * norm / (4.0 * s * s)
