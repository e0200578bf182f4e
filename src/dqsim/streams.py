"""Deterministic random-stream derivation for the synchronous round loop.

Each (worker, iteration, lane) triple gets its own counter-based Philox
stream keyed directly from the master seed, so draws are reproducible,
independent of worker evaluation order, and stable across platforms.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LANE_SAMPLE", "LANE_AUX", "STREAM_FORMAT", "worker_stream"]

LANE_SAMPLE = 0  # gradient sampling noise, then stochastic rounding draws
LANE_AUX = 2  # calibration and other one-off draws

# Version of the draw layout: the key layout below, and the order in which a
# round draws from each stream (oracle sample first, then the d rounding
# uniforms).  Recorded in manifest.json; any change to the layout bumps it.
STREAM_FORMAT = 1

_WORKER_LIMIT = 1 << 24
_ITER_LIMIT = 1 << 32


def worker_stream(
    master: int, worker: int, iteration: int, lane: int = LANE_SAMPLE
) -> np.random.Generator:
    """Philox stream for one (worker, iteration, lane) triple.

    Key layout: word 0 is the master seed, word 1 packs
    lane(8) | worker(24) | iteration(32).  Distinct keys give independent
    Philox streams by construction.
    """
    if not 0 <= worker < _WORKER_LIMIT:
        raise ValueError(f"worker index {worker} out of range")
    if not 0 <= iteration < _ITER_LIMIT:
        raise ValueError(f"iteration {iteration} out of range")
    if not 0 <= lane < 256:
        raise ValueError(f"lane {lane} out of range")
    key = (master & 0xFFFFFFFFFFFFFFFF, (lane << 56) | (worker << 32) | iteration)
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
