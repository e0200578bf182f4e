"""Round codec: a round's W frames as one QuantizedGradient of (W, d) arrays,
checked against the single-frame codec row by row."""

import struct

import numpy as np
import pytest

from dqsim.quant import (
    CorruptionError,
    FramingError,
    QuantizedGradient,
    QuantizerConfig,
    decode,
    dequantize,
    encode,
    frame_bytes,
    quantize,
    sign_quantize,
)


def random_batch(rng, W, d, bits, b_pre):
    s = 1 if bits == 1 else 2 ** (bits - 1) - 1
    if bits == 1:
        levels = np.ones((W, d), dtype=np.uint32)
    else:
        levels = rng.integers(0, s + 1, (W, d)).astype(np.uint32)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(W, d))
    norms = np.abs(rng.standard_normal(W))
    if b_pre == 32:
        norms = norms.astype(np.float32).astype(np.float64)
    zero = rng.integers(W)
    norms[zero] = 0.0
    levels[zero] = 0 if bits > 1 else 1
    signs[rng.integers(W)] = -1  # an all-negative row
    return QuantizedGradient(norms, signs, levels, bits, b_pre)


def row_of(q, i):
    """Frame i of the round q, built through the public constructor."""
    return QuantizedGradient(q.norm[i], q.signs[i], q.levels[i], q.bits, q.b_pre)


@pytest.mark.parametrize("b_pre", [32, 64])
def test_batch_encode_is_the_frames_back_to_back(b_pre):
    rng = np.random.default_rng(21)
    for bits in list(range(1, 13)) + [32]:
        for _ in range(6):
            W = int(rng.integers(1, 9))
            d = int(rng.integers(1, 60))
            if d % 8 == 0:
                d += 1
            batch = random_batch(rng, W, d, bits, b_pre)
            frames = [row_of(batch, i) for i in range(W)]
            data = encode(batch)
            assert data == b"".join(encode(q) for q in frames)
            assert len(data) == W * frame_bytes(d, bits, b_pre)
            back = decode(data, d, QuantizerConfig(bits=bits, b_pre=b_pre), W)
            assert np.array_equal(back.norm, batch.norm)
            assert np.array_equal(back.signs, batch.signs)
            assert np.array_equal(back.levels, batch.levels)
            assert (back.bits, back.b_pre) == (bits, b_pre)


def test_stack_and_frame_are_inverse():
    rng = np.random.default_rng(22)
    batch = random_batch(rng, 5, 13, 6, 32)
    frames = [row_of(batch, i) for i in range(5)]
    again = QuantizedGradient(
        np.array([q.norm for q in frames]),
        np.stack([q.signs for q in frames]),
        np.stack([q.levels for q in frames]),
        batch.bits,
        batch.b_pre,
    )
    assert np.array_equal(again.norm, batch.norm)
    assert np.array_equal(again.signs, batch.signs)
    assert np.array_equal(again.levels, batch.levels)
    q = frames[2]
    one = QuantizedGradient(np.array([q.norm]), q.signs[None], q.levels[None], q.bits, q.b_pre)
    assert encode(one) == encode(q)
    assert one.encoded_bits == q.encoded_bits and batch.encoded_bits == 5 * q.encoded_bits


def test_batch_decode_wrong_total_length_raises_framing_error():
    rng = np.random.default_rng(23)
    batch = random_batch(rng, 4, 11, 5, 32)
    cfg = QuantizerConfig(bits=5)
    data = encode(batch)
    for bad in (data[:-1], data + b"\x00", data[: frame_bytes(11, 5, 32) * 3]):
        with pytest.raises(FramingError):
            decode(bad, 11, cfg, 4)
    with pytest.raises(FramingError):
        decode(data, 11, cfg, 3)


@pytest.mark.parametrize("bad_norm", [float("nan"), -1.0])
def test_batch_decode_rejects_a_bad_norm_in_any_row(bad_norm):
    rng = np.random.default_rng(24)
    d, W = 9, 4
    cfg = QuantizerConfig(bits=4)
    nbytes = frame_bytes(d, 4, 32)
    data = encode(random_batch(rng, W, d, 4, 32))
    for row in range(W):
        corrupt = bytearray(data)
        corrupt[row * nbytes : row * nbytes + 4] = struct.pack(">f", bad_norm)
        with pytest.raises(CorruptionError, match=f"frame {row}"):
            decode(bytes(corrupt), d, cfg, W)


@pytest.mark.parametrize("bits", [2, 3, 9, 17, 32])
def test_level_field_cannot_exceed_s(bits):
    # every level bit set decodes to exactly s: a (bits-1)-bit field holds no
    # larger value, so a level above s cannot arrive on the wire
    d = 3
    data = struct.pack(">f", 1.0) + b"\xff" * (frame_bytes(d, bits, 32) - 4)
    q = decode(data, d, QuantizerConfig(bits=bits))
    assert np.all(q.levels == QuantizerConfig(bits=bits).levels)
    assert np.all(q.signs == -1)


def test_batch_quantize_matches_frames_quantized_alone():
    rng = np.random.default_rng(25)
    W, d = 5, 37
    values = rng.standard_normal((W, d))
    values[1] = 0.0
    values[3] = -np.abs(values[3])
    values[4] = 1e-200  # nonzero, but its norm underflows to 0
    for bits, b_pre in ((2, 32), (6, 64), (12, 32), (32, 64)):
        cfg = QuantizerConfig(bits=bits, b_pre=b_pre)
        uniforms = np.empty((W, d))
        for i in range(W):
            np.random.default_rng([bits, i]).random(out=uniforms[i])
        batch = quantize(values, cfg, uniforms)
        for i, g in enumerate(values):
            alone = quantize(g, cfg, np.random.default_rng([bits, i]))
            row = row_of(batch, i)
            assert row.norm == alone.norm
            assert np.array_equal(row.signs, alone.signs)
            assert np.array_equal(row.levels, alone.levels)
        assert np.all(batch.levels[[1, 4]] == 0) and np.all(batch.norm[[1, 4]] == 0.0)
        with pytest.raises(ValueError):
            quantize(values, cfg, uniforms[:1])  # would broadcast over the rows
    signs = sign_quantize(values, b_pre=64)
    for i, g in enumerate(values):
        alone = sign_quantize(g, b_pre=64)
        assert signs.norm[i] == alone.norm
        assert np.array_equal(signs.signs[i], alone.signs)


def test_batch_dequantized_rows_match_frames():
    rng = np.random.default_rng(26)
    batch = random_batch(rng, 6, 10, 7, 64)
    values = dequantize(batch)
    for i in range(6):
        q = row_of(batch, i)
        expected = (q.norm * q.signs.astype(np.float64) * q.levels) / q.level_count
        assert np.array_equal(values[i], expected)
        assert np.array_equal(dequantize(q), expected)


def valid_round():
    # W=3 frames of d=4 at 3 bits (s = 3)
    return np.array([0.5, 1.0, 2.0]), np.ones((3, 4), np.int8), np.full((3, 4), 2, np.uint32)


@pytest.mark.parametrize("case", ["nan norm", "negative norm", "level above s", "zero sign"])
def test_round_constructor_rejects_a_bad_value_in_any_row(case):
    QuantizedGradient(*valid_round(), bits=3)
    for row in range(3):
        norms, signs, levels = valid_round()
        if case == "nan norm":
            norms[row] = np.nan
        elif case == "negative norm":
            norms[row] = -1.0
        elif case == "level above s":
            levels[row, 1] = 4
        else:
            signs[row, 2] = 0
        with pytest.raises(ValueError):
            QuantizedGradient(norms, signs, levels, bits=3)


def test_round_constructor_rejects_mismatched_shapes():
    norms, signs, levels = valid_round()
    for bad in (
        (norms[:-1], signs, levels),  # a norm short
        (np.append(norms, 1.0), signs, levels),  # a norm over
        (norms[:, None], signs, levels),
        (1.0, signs, levels),
        (norms, signs, levels[:, :3]),  # signs and levels differ
        (norms, signs[:2], levels),
        (norms, signs[None], levels[None]),  # not 1-D or (W, d)
    ):
        with pytest.raises(ValueError):
            QuantizedGradient(*bad, bits=3)
