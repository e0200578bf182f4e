"""Stream derivation: a re-keyed Generator draws what a fresh stream draws."""

import numpy as np
import pytest

from dqsim.streams import (
    ITER_LIMIT,
    LANE_AUX,
    LANE_SAMPLE,
    SEED_LIMIT,
    WORKER_LIMIT,
    worker_stream,
)

KEYS = [
    (0, 0, 0, LANE_SAMPLE),
    (7, 3, 11, LANE_SAMPLE),
    (2**64 - 1, WORKER_LIMIT - 1, ITER_LIMIT - 1, 255),
    (123456789, 0, 0, LANE_AUX),
]


def _draws(gen, d=37):
    """The draw kinds a round and calibration make, in one sequence, then
    float32 uniforms, which take 32-bit halves and so read a saved half word."""
    shard = np.arange(100, 160)
    out = np.empty(d)
    gen.random(out=out)
    return [
        out,
        gen.normal(0.0, 0.3, size=d),
        gen.choice(shard, 16, replace=False),
        gen.integers(0, 2**32 - 1, size=5, dtype=np.uint32),
        gen.random(3),
        gen.random(3, dtype=np.float32),
    ]


def _same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("key", KEYS)
def test_rekeyed_generator_draws_like_a_fresh_stream(key):
    gen = worker_stream(99, 5, 6)
    assert worker_stream(*key, into=gen) is gen
    _same(_draws(gen), _draws(worker_stream(*key)))


@pytest.mark.parametrize("key", KEYS)
def test_rekey_discards_half_words_and_a_part_used_buffer(key):
    gen = worker_stream(1, 2, 3)
    # an odd number of 32-bit draws leaves a saved half word, and three
    # doubles leave the 4-word output buffer part used
    gen.integers(0, 1000, size=3, dtype=np.uint32)
    gen.random(3)
    state = gen.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
    worker_stream(*key, into=gen)
    _same(_draws(gen), _draws(worker_stream(*key)))
    # and the state itself is a fresh stream's, word for word
    fresh = worker_stream(*key).bit_generator.state
    worker_stream(*key, into=gen)
    rekeyed = gen.bit_generator.state
    for name in ("counter", "key"):
        assert np.array_equal(rekeyed["state"][name], fresh["state"][name])
    for name in ("buffer_pos", "has_uint32", "uinteger"):
        assert rekeyed[name] == fresh[name]


def test_rekeying_in_a_loop_repeats_each_stream():
    gen = worker_stream(0, 0, 0, LANE_AUX)
    first = [worker_stream(5, i, t, into=gen).random(4) for t in range(3) for i in range(4)]
    again = [worker_stream(5, i, t).random(4) for t in range(3) for i in range(4)]
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "args",
    [
        (0, WORKER_LIMIT, 0),
        (0, 0, ITER_LIMIT),
        (0, 0, 0, 256),
        (SEED_LIMIT, 0, 0),
        (-1, 0, 0),
        (0, -1, 0),
        (0, 0, -1),
        (0, 0, 0, -1),
    ],
)
def test_out_of_range_field_raises_and_leaves_into_untouched(args):
    gen = worker_stream(4, 1, 2)
    gen.integers(0, 10, size=3, dtype=np.uint32)
    before = gen.bit_generator.state
    with pytest.raises(ValueError, match="out of range"):
        worker_stream(*args, into=gen)
    with pytest.raises(ValueError, match="out of range"):
        worker_stream(*args)
    after = gen.bit_generator.state
    for name in ("counter", "key"):
        assert np.array_equal(after["state"][name], before["state"][name])
    assert np.array_equal(after["buffer"], before["buffer"])
    for name in ("buffer_pos", "has_uint32", "uinteger"):
        assert after[name] == before[name]

