"""Wire codec: exact bit layout, round trips, framing and corruption errors."""

import hashlib
import math
import struct

import numpy as np
import pytest

from dqsim.quant import (
    CorruptionError,
    FramingError,
    QuantizedGradient,
    QuantizerConfig,
    decode,
    encode,
    frame_bytes,
    quantize,
    sign_quantize,
)


def test_single_coordinate_layout():
    # d=1, b=2, negative level 1: 32-bit norm then bits "11", padded to 5 bytes
    q = QuantizedGradient(0.75, np.array([-1]), np.array([1]), bits=2, b_pre=32)
    data = encode(q)
    assert len(data) == 5
    assert q.encoded_bits == 34
    assert data[:4] == struct.pack(">f", 0.75)
    assert data[4] == 0b11000000


# SHA-256 of every frame and round that test_wire_bytes_are_pinned encodes
WIRE_DIGEST = "c350c63cf0ac6761bdd88220a8b06679db04e7d436a234dc25a047926aec2233"


def wire_fields(shape, bits, b_pre):
    """Norms, signs and levels for a frame (d,) or round (W, d), made from raw
    Philox words by integer arithmetic alone, so the digest pins the codec
    and not numpy's samplers."""
    n = math.prod(shape)
    key = ((bits * 100 + b_pre) * 100 + shape[-1]) * 10 + len(shape)
    words = np.random.Philox(key=key).random_raw(2 * n + n // shape[-1])
    s = 1 if bits == 1 else (1 << (bits - 1)) - 1
    levels = (words[:n] % np.uint64(s + 1)).astype(np.uint32).reshape(shape)
    signs = np.where(words[n : 2 * n] >> np.uint64(63), -1, 1).astype(np.int8).reshape(shape)
    # 24-bit norms, exact at both wire precisions
    norms = (words[2 * n :] >> np.uint64(40)).astype(np.float64) / 1024.0
    return norms, signs, levels


def test_wire_bytes_are_pinned():
    # every width, both header precisions, d = 1..64 with some d % 8 != 0;
    # a layout change that decode mirrors would still change these bytes
    digest = hashlib.sha256()
    for bits in list(range(1, 13)) + [32]:
        for b_pre in (32, 64):
            for d in (1, 3, 8, 13, 64):
                norm, signs, levels = wire_fields((d,), bits, b_pre)
                frame = QuantizedGradient(float(norm[0]), signs, levels, bits, b_pre)
                digest.update(encode(frame))
                norms, signs, levels = wire_fields((3, d), bits, b_pre)
                digest.update(encode(QuantizedGradient(norms, signs, levels, bits, b_pre)))
    assert digest.hexdigest() == WIRE_DIGEST


def test_sign_bit_convention():
    # positive sign encodes as 0
    q = QuantizedGradient(0.75, np.array([1]), np.array([1]), bits=2, b_pre=32)
    assert encode(q)[4] == 0b01000000


def test_payload_size_arithmetic():
    # d=16, b=4: 64 payload bits + 32 header = 96 bits = 12 bytes
    q = QuantizedGradient(
        1.0, np.ones(16, dtype=np.int8), np.full(16, 3, dtype=np.uint32), bits=4
    )
    assert q.encoded_bits == 96
    assert len(encode(q)) == 12
    assert frame_bytes(16, 4, 32) == 12
    # the size rule is d*b + b_pre in all cases
    assert frame_bytes(8, 4, 32) * 8 >= 8 * 4 + 32
    q8 = QuantizedGradient(
        1.0, np.ones(8, dtype=np.int8), np.zeros(8, dtype=np.uint32), bits=4
    )
    assert q8.encoded_bits == 8 * 4 + 32 == 64
    assert len(encode(q8)) == 8


@pytest.mark.parametrize("b_pre", [32, 64])
def test_round_trip_random_instances(b_pre):
    rng = np.random.default_rng(11)
    for _ in range(300):
        d = int(rng.integers(1, 40))
        bits = int(rng.integers(1, 13))
        if bits == 1:
            levels = np.ones(d, dtype=np.uint32)
        else:
            levels = rng.integers(0, 2 ** (bits - 1), size=d).astype(np.uint32)
        signs = rng.choice([-1, 1], size=d).astype(np.int8)
        norm = float(np.float32(abs(rng.standard_normal()))) if b_pre == 32 else abs(
            rng.standard_normal()
        )
        q = QuantizedGradient(norm, signs, levels, bits=bits, b_pre=b_pre)
        back = decode(encode(q), d, QuantizerConfig(bits=bits, b_pre=b_pre))
        assert back.norm == q.norm
        assert np.array_equal(back.signs, q.signs)
        assert np.array_equal(back.levels, q.levels)
        assert back.bits == q.bits
        assert len(encode(q)) == frame_bytes(d, bits, b_pre)


def test_round_trip_through_quantize():
    rng = np.random.default_rng(12)
    for b_pre in (32, 64):
        for bits in (2, 3, 5, 8, 32):
            cfg = QuantizerConfig(bits=bits, b_pre=b_pre)
            g = rng.standard_normal(17)
            q = quantize(g, cfg, rng)
            back = decode(encode(q), 17, cfg)
            assert type(q.norm) is float and type(back.norm) is float
            assert back.norm == q.norm
            assert np.array_equal(back.levels, q.levels)
            assert np.array_equal(back.signs, q.signs)


def test_sign_codec_round_trip():
    rng = np.random.default_rng(13)
    g = rng.standard_normal(29)
    q = sign_quantize(g)
    back = decode(encode(q), 29, QuantizerConfig(bits=1))
    assert back.norm == q.norm
    assert np.array_equal(back.signs, q.signs)
    assert np.all(back.levels == 1)


def test_truncated_frame_raises_framing_error():
    q = QuantizedGradient(1.0, np.array([1, -1]), np.array([1, 0]), bits=3)
    data = encode(q)
    with pytest.raises(FramingError):
        decode(data[:-1], 2, QuantizerConfig(bits=3))
    with pytest.raises(FramingError):
        decode(data + b"\x00", 2, QuantizerConfig(bits=3))
    with pytest.raises(FramingError):
        decode(data, 3, QuantizerConfig(bits=3))


def test_corrupted_norm_raises_corruption_error():
    # the level grid exactly fills its bit field, so the norm is the only
    # field whose corruption is detectable: flip its sign bit
    q = QuantizedGradient(1.0, np.array([1, -1]), np.array([1, 0]), bits=3)
    data = bytearray(encode(q))
    data[0] ^= 0x80
    with pytest.raises(CorruptionError):
        decode(bytes(data), 2, QuantizerConfig(bits=3))


def test_nan_norm_raises_corruption_error():
    data = struct.pack(">f", float("nan")) + b"\x00"
    with pytest.raises(CorruptionError):
        decode(data, 1, QuantizerConfig(bits=2))


def test_oversized_level_rejected_before_encode():
    q = QuantizedGradient(1.0, np.array([1]), np.array([1]), bits=3)
    q.levels = np.array([4], dtype=np.uint32)  # s = 3
    with pytest.raises(ValueError):
        encode(q)


def test_padding_bits_are_ignored():
    q = QuantizedGradient(2.0, np.array([1, 1, -1]), np.array([0, 1, 1]), bits=2)
    data = bytearray(encode(q))
    data[-1] |= 0x03  # touch only the final padding bits
    back = decode(bytes(data), 3, QuantizerConfig(bits=2))
    assert np.array_equal(back.levels, q.levels)
    assert np.array_equal(back.signs, q.signs)


def test_wire_norm_precision_matches_b_pre():
    g = np.array([0.1, 0.2, 0.7])
    q32 = quantize(g, QuantizerConfig(bits=4, b_pre=32), np.random.default_rng(0))
    assert q32.norm == float(np.float32(q32.norm))
    q64 = quantize(g, QuantizerConfig(bits=4, b_pre=64), np.random.default_rng(0))
    assert q64.norm == np.linalg.norm(g)
