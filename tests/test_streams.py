"""Stream derivation: a re-keyed Generator draws what a fresh stream draws,
and the draws themselves match committed digests.

Run this file as a script to rewrite tests/data/draw_digest.json from the
installed numpy, after bumping STREAM_FORMAT for a deliberate layout change.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from dqsim.streams import (
    ITER_LIMIT,
    LANE_AUX,
    LANE_SAMPLE,
    SEED_LIMIT,
    STREAM_FORMAT,
    WORKER_LIMIT,
    worker_stream,
)

DRAW_DIGEST = Path(__file__).parent / "data" / "draw_digest.json"

# every key at the ends of each field's range, in both lanes a run draws from
DIGEST_KEYS = list(
    itertools.product(
        (0, SEED_LIMIT - 1), (0, WORKER_LIMIT - 1), (0, ITER_LIMIT - 1), (LANE_SAMPLE, LANE_AUX)
    )
)

# the Generator calls a round and calibration make, by name
DIGEST_METHODS = {
    "raw": lambda gen: gen.bit_generator.random_raw(8),
    **{f"random_d{d}": (lambda gen, d=d: gen.random(d)) for d in (1, 50)},
    **{f"normal_d{d}": (lambda gen, d=d: gen.normal(0.0, 1.0, size=d)) for d in (4, 10_000)},
    **{
        f"choice_shard{size}_batch{batch}": (
            lambda gen, size=size, batch=batch: gen.choice(np.arange(size), batch, replace=False)
        )
        for size in (16, 250)
        for batch in (1, 16)
    },
}


def _draw_digests() -> dict:
    """{method: SHA-256 over its draws from a fresh stream per DIGEST_KEYS key},
    each draw as little-endian 8-byte words."""
    digests = {}
    for name, method in DIGEST_METHODS.items():
        h = hashlib.sha256()
        for key in DIGEST_KEYS:
            draws = np.asarray(method(worker_stream(*key)))
            h.update(draws.astype(draws.dtype.newbyteorder("<")).tobytes())
        digests[name] = h.hexdigest()
    return digests

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


def test_draws_match_the_committed_digests():
    pinned = json.loads(DRAW_DIGEST.read_text())
    assert pinned["stream_format"] == STREAM_FORMAT, (
        f"{DRAW_DIGEST.name} pins stream_format {pinned['stream_format']}, the code is at "
        f"{STREAM_FORMAT}: rewrite the file by running {Path(__file__).name} as a script"
    )
    digests = _draw_digests()
    assert digests.keys() == pinned["digests"].keys()
    for name, digest in digests.items():
        assert digest == pinned["digests"][name], (
            f"the {name} draws no longer match {DRAW_DIGEST.name} (pinned with numpy "
            f"{pinned['numpy']}, running {np.__version__}): if the draw layout changed on "
            "purpose, bump STREAM_FORMAT and rewrite the file; otherwise pin numpy to a "
            "version that draws the pinned values"
        )


if __name__ == "__main__":
    DRAW_DIGEST.parent.mkdir(exist_ok=True)
    record = {
        "stream_format": STREAM_FORMAT,
        "numpy": np.__version__,
        "keys": "(seed, worker, iteration, lane) with seed in {0, 2**64-1}, worker in "
        "{0, 2**24-1}, iteration in {0, 2**32-1} and lane in {0, 2}; a fresh stream per "
        "key and method",
        "digests": _draw_digests(),
    }
    DRAW_DIGEST.write_text(json.dumps(record, indent=1) + "\n")
