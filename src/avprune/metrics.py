"""Diagnostics over traces, attention maps, and embeddings.

Covers the top-20% attention-recall curve, per-modality retention series,
pairwise cosine-similarity histograms, and an analytic FLOPs / KV-memory
cost model driven by the survivor counts of a pruning trace.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidInput
from .numerics import Rng
from .sequence import Modality
from .trace import PruneTrace

HISTOGRAM_BIN_WIDTH = 0.05  # fixed so histograms are comparable across runs
# Blocks bound peak memory: the rows gathered for one block of dot products,
# and the temporaries of one belows() call. A belows() call costs one numpy
# pass per lane step whatever its length, so its blocks are larger.
_PAIR_BLOCK = 4096
_DRAW_BLOCK = 16384


def top20_recall(attn: np.ndarray, *, per_row: bool = False) -> float:
    """Share of attention mass held by the top 20% largest entries.

    The matrix is flattened and the ceil(0.2 * E) largest of its E entries
    are summed against the total. ``per_row`` instead applies the rule within
    each row and averages the per-row shares. Any non-negative scale is
    accepted, since the share does not depend on it.
    """
    values = np.asarray(attn, dtype=np.float64)
    if values.ndim != 2:
        raise InvalidInput(f"attention must be a matrix, got a rank-{values.ndim} tensor")
    if values.size == 0:
        raise InvalidInput("empty attention submatrix")
    if not np.all(np.isfinite(values)) or values.min() < 0.0:
        raise InvalidInput("attention must be finite and non-negative")
    if not per_row:
        return _mass_share(values.ravel())
    return float(np.mean([_mass_share(row) for row in values]))


def _mass_share(flat: np.ndarray) -> float:
    total = float(flat.sum())
    if total <= 0.0:
        raise DegenerateInput("attention submatrix has no mass")
    top = math.ceil(0.2 * flat.size)
    largest = np.sort(flat)[::-1][:top]
    return float(largest.sum()) / total


def retention_per_modality(trace: PruneTrace) -> tuple[list[float], list[float]]:
    """Per-layer (audio, video) retention relative to the layer-0 counts."""
    a0 = trace.initial_audio
    v0 = trace.initial_video
    audio = [rec.n_audio / a0 if a0 else 1.0 for rec in trace.layers]
    video = [rec.n_video / v0 if v0 else 1.0 for rec in trace.layers]
    return audio, video


class PairKind(enum.Enum):
    AA = "AA"
    VV = "VV"
    AV = "AV"


@dataclass(frozen=True)
class CosineHistogram:
    """Fixed-width histogram of pairwise cosine similarities over [-1, 1]."""

    counts: tuple[int, ...]
    pairs_used: int

    @property
    def bin_edges(self) -> np.ndarray:
        n = len(self.counts)
        return -1.0 + HISTOGRAM_BIN_WIDTH * np.arange(n + 1)


def _sample_distinct(n_total: int, k: int, rng: Rng) -> np.ndarray:
    # Floyd's algorithm (Bentley & Floyd 1987): k distinct uniform draws from
    # range(n_total). Step j of range(lo, n_total) draws t = below(j + 1) and
    # keeps j if t is kept already, else t. The draws come first, a block at a
    # time; the rest is whole-array. t is kept already when an earlier step
    # drew it too, or when lo <= t < j and step t itself kept t. Following
    # t -> step t reaches the first case or leaves the range in a few passes.
    lo = n_total - k
    t = np.empty(k, np.int64)
    for s in range(0, k, _DRAW_BLOCK):
        t[s : s + _DRAW_BLOCK] = rng.belows(np.arange(lo + s + 1, min(lo + s + _DRAW_BLOCK, n_total) + 1))
    order = np.argsort(t)
    ts = t[order]
    firsts = np.minimum.reduceat(order, np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]]))
    repeat = np.ones(k, dtype=bool)
    repeat[firsts] = False
    step = t - lo  # only read where link holds; "clip" keeps the rest in bounds
    link = ~repeat & (step >= 0) & (step < np.arange(k))
    kept_j = repeat
    while not np.array_equal(kept_j, nxt := repeat | (link & kept_j.take(step, mode="clip"))):
        kept_j = nxt
    picks = np.where(kept_j, np.arange(lo, n_total), t)
    picks.sort()
    return picks


def cosine_distribution(
    embeddings: np.ndarray,
    modalities,
    pair_kind: PairKind,
    sample_cap: int = 100_000,
    rng: Rng | None = None,
) -> CosineHistogram:
    """Histogram of pairwise cosines for one pair kind (AA, VV, or AV).

    All pairs are used when they fit under ``sample_cap``; otherwise a
    uniform sample of distinct pairs is drawn from ``rng``. A zero or
    non-finite row among those of the pair kind raises DegenerateInput.
    """
    if sample_cap < 1:
        raise InvalidInput(f"sample_cap must be at least 1, got {sample_cap}")
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2:
        raise InvalidInput(f"embeddings must be one row per token, got a rank-{emb.ndim} tensor")
    modalities = list(modalities)
    audio = np.flatnonzero([m is Modality.AUDIO for m in modalities])
    video = np.flatnonzero([m is Modality.VIDEO for m in modalities])
    need = {PairKind.AA: (audio,), PairKind.VV: (video,), PairKind.AV: (audio, video)}[pair_kind]
    for group in need:
        if len(group) < 2:
            raise InvalidInput(f"{pair_kind.value} needs at least 2 tokens per modality")

    read = np.concatenate(need)
    norms = np.linalg.norm(emb[read], axis=1)
    bad = read[~np.isfinite(norms) | (norms == 0.0)]
    if bad.size:
        raise DegenerateInput(f"row {bad[0]} is zero or not finite, so its cosines are undefined")
    unit = np.zeros_like(emb)
    unit[read] = emb[read] / norms[:, None]

    n = len(need[0])
    n_pairs = n * len(video) if pair_kind is PairKind.AV else n * (n - 1) // 2
    if n_pairs <= sample_cap:
        picks = np.arange(n_pairs)
    else:
        if rng is None:
            raise InvalidInput("sampling above the cap requires an rng")
        picks = _sample_distinct(n_pairs, sample_cap, rng)

    n_bins = round(2.0 / HISTOGRAM_BIN_WIDTH)
    counts = np.zeros(n_bins, dtype=np.int64)
    for lo in range(0, len(picks), _PAIR_BLOCK):
        p = picks[lo : lo + _PAIR_BLOCK]
        if pair_kind is PairKind.AV:
            i, j = audio[p // len(video)], video[p % len(video)]
        else:
            # Triangular unranking of pair p among i < j; the discriminant
            # is a perfect square at row boundaries, so floor is exact.
            row = ((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * p)) // 2).astype(np.int64)
            i, j = need[0][row], need[0][p - row * (2 * n - row - 1) // 2 + row + 1]
        # Stacked (1,d)@(d,1) products round as the 1-D dot; einsum or a
        # Gram gemm would sum in another order.
        c = np.clip((unit[i][:, None, :] @ unit[j][:, :, None]).ravel(), -1.0, 1.0)
        bins = np.clip((c + 1.0) // HISTOGRAM_BIN_WIDTH, 0, n_bins - 1).astype(np.int64)
        counts += np.bincount(bins, minlength=n_bins)
    return CosineHistogram(counts=tuple(counts.tolist()), pairs_used=len(picks))


@dataclass(frozen=True)
class LayerCost:
    """Analytic cost of one layer at its entering survivor count."""

    layer: int
    n: int
    attention_flops: int
    linear_flops: int

    @property
    def flops(self) -> int:
        return self.attention_flops + self.linear_flops


@dataclass(frozen=True)
class CostReport:
    """Prefill FLOPs and KV-memory of a trace versus a no-pruning baseline.

    Counts mul-add pairs as 2 operations and causal attention as a full
    n-squared pass; the baseline holds the layer-0 count at every layer.
    """

    per_layer: tuple[LayerCost, ...]
    baseline_per_layer: tuple[LayerCost, ...]
    kv_bytes: int
    baseline_kv_bytes: int

    @property
    def total_flops(self) -> int:
        return sum(c.flops for c in self.per_layer)

    @property
    def baseline_total_flops(self) -> int:
        return sum(c.flops for c in self.baseline_per_layer)

    @property
    def flops_ratio(self) -> float:
        return _ratio(self.total_flops, self.baseline_total_flops)

    @property
    def attention_flops_ratio(self) -> float:
        return _ratio(
            sum(c.attention_flops for c in self.per_layer), sum(c.attention_flops for c in self.baseline_per_layer)
        )

    @property
    def linear_flops_ratio(self) -> float:
        return _ratio(
            sum(c.linear_flops for c in self.per_layer), sum(c.linear_flops for c in self.baseline_per_layer)
        )

    @property
    def kv_ratio(self) -> float:
        return _ratio(self.kv_bytes, self.baseline_kv_bytes)

    def to_json_obj(self) -> dict:
        return {
            "note": "mul-add counted as 2 ops; causal attention counted as full n^2",
            "per_layer": [
                {
                    "layer": c.layer,
                    "n": c.n,
                    "flops": c.flops,
                    "attention_flops": c.attention_flops,
                    "linear_flops": c.linear_flops,
                    "baseline_n": b.n,
                    "baseline_flops": b.flops,
                    "baseline_attention_flops": b.attention_flops,
                    "baseline_linear_flops": b.linear_flops,
                }
                for c, b in zip(self.per_layer, self.baseline_per_layer)
            ],
            "total_flops": self.total_flops,
            "baseline_total_flops": self.baseline_total_flops,
            "kv_bytes": self.kv_bytes,
            "baseline_kv_bytes": self.baseline_kv_bytes,
            "flops_ratio": self.flops_ratio,
            "attention_flops_ratio": self.attention_flops_ratio,
            "linear_flops_ratio": self.linear_flops_ratio,
            "kv_ratio": self.kv_ratio,
        }


def _ratio(cost: int, baseline: int) -> float:
    if baseline == 0:  # every baseline is zero exactly when layer 0 holds no tokens
        raise DegenerateInput("layer 0 enters with no tokens, so every cost ratio is undefined")
    return cost / baseline


def _layer_cost(layer: int, n: int, d: int) -> LayerCost:
    # Projections + feed-forward scale as 24*n*d^2; QK^T and AV as 4*n^2*d.
    return LayerCost(
        layer=layer,
        n=n,
        attention_flops=4 * n * n * d,
        linear_flops=24 * n * d * d,
    )


def cost_model(trace: PruneTrace, d: int, bytes_per_element: int) -> CostReport:
    """Analytic prefill FLOPs and KV bytes for a trace's survivor counts."""
    if d < 1 or bytes_per_element < 1:
        raise InvalidInput("d and bytes_per_element must be positive")
    counts = [rec.n_audio + rec.n_video + rec.n_text for rec in trace.layers]
    n0 = counts[0]
    per_layer = tuple(_layer_cost(rec.layer, n, d) for rec, n in zip(trace.layers, counts))
    baseline = tuple(_layer_cost(rec.layer, n0, d) for rec in trace.layers)
    kv = sum(2 * n * d * bytes_per_element for n in counts)
    kv_base = 2 * n0 * d * bytes_per_element * len(counts)
    return CostReport(
        per_layer=per_layer,
        baseline_per_layer=baseline,
        kv_bytes=kv,
        baseline_kv_bytes=kv_base,
    )
