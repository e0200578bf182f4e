"""Deterministic random-stream derivation for the synchronous round loop.

Each (worker, iteration, lane) triple gets its own counter-based Philox
stream keyed directly from the master seed, so draws are reproducible,
independent of worker evaluation order, and stable across platforms.  A
Philox stream is nothing but its key and a counter (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11), so one Generator
can serve every triple in turn: `worker_stream(..., into=gen)` re-keys it
in place by assigning its state, at a tenth of the cost of building a new
Generator, and the draws are the same as from a fresh one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LANE_SAMPLE",
    "LANE_AUX",
    "STREAM_FORMAT",
    "SEED_LIMIT",
    "WORKER_LIMIT",
    "ITER_LIMIT",
    "worker_stream",
]

LANE_SAMPLE = 0  # gradient sampling noise, then stochastic rounding draws
LANE_AUX = 2  # calibration and other one-off draws

# Version of the draw layout: the key layout below, and the order in which a
# round draws from each stream (oracle sample first, then the d rounding
# uniforms).  Recorded in manifest.json; any change to the layout bumps it.
STREAM_FORMAT = 1

# Exclusive upper limits of the key fields: the master seed fills key word 0,
# and word 1 packs lane(8) | worker(24) | iteration(32).
SEED_LIMIT = 1 << 64
WORKER_LIMIT = 1 << 24
ITER_LIMIT = 1 << 32
_LANE_LIMIT = 1 << 8

_ZEROS = (0, 0, 0, 0)


def worker_stream(
    master: int,
    worker: int,
    iteration: int,
    lane: int = LANE_SAMPLE,
    into: np.random.Generator | None = None,
) -> np.random.Generator:
    """Philox stream for one (worker, iteration, lane) triple.

    Key layout: word 0 is the master seed, word 1 packs
    lane(8) | worker(24) | iteration(32).  Distinct keys give independent
    Philox streams by construction.

    With into=None a new Generator is built.  Otherwise `into`, a Generator
    over a Philox bit generator, is re-keyed in place and returned: counter
    0, an empty output buffer and no saved 32-bit half, the state of a fresh
    stream with this key.  Any stream `into` gave out before is gone.  A
    field out of range raises ValueError and leaves `into` untouched.
    """
    if not 0 <= master < SEED_LIMIT:
        raise ValueError(f"master seed {master} out of range [0, 2**64)")
    if not 0 <= worker < WORKER_LIMIT:
        raise ValueError(f"worker index {worker} out of range")
    if not 0 <= iteration < ITER_LIMIT:
        raise ValueError(f"iteration {iteration} out of range")
    if not 0 <= lane < _LANE_LIMIT:
        raise ValueError(f"lane {lane} out of range")
    key = (master, (lane << 56) | (worker << 32) | iteration)
    if into is None:
        return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    # plain tuples: the setter copies word by word, and building arrays
    # first would cost more than the assignment itself
    into.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return into
