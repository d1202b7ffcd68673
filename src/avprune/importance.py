"""Query-guided token importance and the pruning selectors.

Importance of a surviving audiovisual token is the mean attention it receives
from the text-query rows of a head-averaged attention map. Selection removes
the k lowest-importance tokens, optionally rescoring a 2k candidate buffer
with a temporal-diversity bonus that protects tokens far from the chunk
holding the attention peak. All ties prune the lower token id first.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .numerics import Rng
from .sequence import TokenTable


class Selector(enum.Enum):
    PLAIN = "plain"
    TDS = "tds"
    RANDOM = "random"


@dataclass(frozen=True)
class TdsConfig:
    """Diversity weight and the layer from which the TDS selector kicks in."""

    lambda_div: float = 0.2
    start_layer: int = 14

    def __post_init__(self):
        if not (0.0 <= self.lambda_div < math.inf):
            raise InvalidInput("lambda_div: must be >= 0 and finite")
        if not (self.start_layer >= 0):
            raise InvalidInput("start_layer: must be >= 0")


def query_importance(values: np.ndarray) -> np.ndarray:
    """Importance per column of an attention map: the float64 mean over its text rows."""
    values = np.asarray(values)
    if values.shape[0] == 0:
        raise InvalidInput("attention map has no text rows")
    return values.mean(axis=0, dtype=np.float64)


def prune_count(n_audio: int, n_video: int, p_l: float) -> int:
    """Per-layer pruning budget: floor of the pooled AV count times p_l."""
    if not (0.0 <= p_l < 1.0):
        raise InvalidInput("p_l must lie in [0, 1)")
    return int(np.floor((n_audio + n_video) * p_l))


def _ascending(columns: TokenTable, scores: np.ndarray) -> np.ndarray:
    # Positions ordered by (score, id): the global lower-id-first tie rule.
    if np.shape(scores) != (len(columns),):
        raise InvalidInput(f"one score per token required, got {np.shape(scores)} for {len(columns)} tokens")
    return np.lexsort((columns.id, scores))


def plain_select(columns: TokenTable, scores: np.ndarray, k: int) -> np.ndarray:
    """Ascending ids of the k lowest-scoring tokens of ``columns``, k clamped; ties prune the lower id first."""
    return np.sort(columns.id[_ascending(columns, scores)[: max(k, 0)]])


def tds_select(columns: TokenTable, scores: np.ndarray, k: int, cfg: TdsConfig, max_chunk: int) -> np.ndarray:
    """Ascending ids pruned by diversity-aware selection over a 2k candidate buffer.

    The key chunk is the one holding the highest-importance token; buffer
    entries get a bonus of lambda_div times their normalized chunk distance
    from it, and the k lowest rescored candidates are pruned. ``max_chunk``
    is the maximum chunk index of the full sequence; a single-chunk sequence
    (max_chunk = 0) degenerates to plain selection.
    """
    ids, chunks, vals = columns.id, columns.chunk, np.asarray(scores, dtype=np.float64)
    order = _ascending(columns, vals)
    k = min(k, len(columns))
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    key_chunk = chunks[np.lexsort((ids, -vals))[0]]
    buffer = order[: 2 * k]
    distance = np.abs(key_chunk - chunks[buffer]) / max_chunk if max_chunk > 0 else 0.0
    rescored = vals[buffer] + cfg.lambda_div * distance
    return np.sort(ids[buffer][np.lexsort((ids[buffer], rescored))[:k]])


def random_select(ids, k: int, rng: Rng) -> np.ndarray:
    """Ascending uniform sample of k ids without replacement; clamps oversized budgets."""
    pool = np.array(ids, dtype=np.int64).tolist()  # list swaps cost a fraction of array ones
    k = min(max(k, 0), len(pool))
    for i, t in enumerate(rng.belows(len(pool) - np.arange(k)).tolist()):
        pool[i], pool[i + t] = pool[i + t], pool[i]
    return np.sort(np.array(pool[:k], dtype=np.int64))
