"""A fixed computation that measures how fast the host is running right now.

The benchmark's host is shared: for seconds and sometimes minutes at a time
every op runs up to 1.8x slower, with CPU time growing as much as wall time,
so neither statistic of raw op times holds steady from run to run. An
untraced run therefore samples this computation between blocks of ops and
rescales each block's op time to a nominal host, one on which a sample takes
``NOMINAL_S``. The computation imitates the pipeline's mix and never calls
avprune, so a change to the program moves the op times and not the samples:

- scalar Python arithmetic per draw, as in ``Rng.gaussian``;
- one small numpy call per element, as in ``cosine_distribution``;
- whole-array scores, softmax and weighted sums, as in a forward layer.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.2  # about one sample on the calm 2-core host the benchmark was tuned on

_SCALAR_DRAWS = 120_000
_ROWS = np.random.default_rng(0).standard_normal((12_000, 32))
_HEADS = np.random.default_rng(1).standard_normal((4, 512, 32))


def _scalar() -> float:
    state, total = 12345, 0.0
    for _ in range(_SCALAR_DRAWS):
        state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        u = ((state >> 11) + 1) / 9007199254740994.0
        total += math.sqrt(-2.0 * math.log(u)) * math.cos(2.0 * math.pi * u)
    return total


def _per_row() -> float:
    anchor = _ROWS[0]
    return sum(float(np.dot(row, anchor)) for _ in range(4) for row in _ROWS)


def _arrays() -> float:
    total = 0.0
    for _ in range(5):
        scores = _HEADS @ _HEADS.transpose(0, 2, 1)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        total += float((scores @ _HEADS).sum())
    return total


def sample(clock=time.perf_counter) -> float:
    """Wall seconds of one pass of the reference computation."""
    start = clock()
    _scalar()
    _per_row()
    _arrays()
    return clock() - start
