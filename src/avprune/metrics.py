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
# and the temporaries of one belows() call. A belows() call costs 256 numpy
# passes (one per lane step) whatever its length, so its blocks are larger:
# a 100k-pair sample takes two calls. One call for all of it, or blocks of
# 65,536, raised the analyze benchmark's peak RSS by about 0.5 MiB.
_PAIR_BLOCK = 4096
_DRAW_BLOCK = 50_000


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


def cost_model(trace: PruneTrace, d: int, bytes_per_element: int) -> dict:
    """The ``cost.json`` object: analytic prefill FLOPs and KV bytes of a trace versus a no-pruning baseline.

    Counts mul-add pairs as 2 operations and causal attention as a full
    n-squared pass; the baseline holds the layer-0 count at every layer, so
    every ratio is undefined when layer 0 holds no tokens (DegenerateInput).
    """
    if d < 1 or bytes_per_element < 1:
        raise InvalidInput("d and bytes_per_element must be positive")
    counts = [rec.n_audio + rec.n_video + rec.n_text for rec in trace.layers]
    if not counts or counts[0] == 0:
        raise DegenerateInput("layer 0 enters with no tokens, so every cost ratio is undefined")
    n0, layers = counts[0], len(counts)
    # Projections + feed-forward scale as 24*n*d^2; QK^T and AV as 4*n^2*d.
    attention = [4 * n * n * d for n in counts]
    linear = [24 * n * d * d for n in counts]
    total, base_flops = sum(attention) + sum(linear), attention[0] + linear[0]
    kv = sum(2 * n * d * bytes_per_element for n in counts)
    base_kv = 2 * n0 * d * bytes_per_element * layers
    return {
        "note": "mul-add counted as 2 ops; causal attention counted as full n^2",
        "per_layer": [
            {
                "layer": rec.layer,
                "n": n,
                "flops": a + f,
                "attention_flops": a,
                "linear_flops": f,
                "baseline_n": n0,
                "baseline_flops": base_flops,
                "baseline_attention_flops": attention[0],
                "baseline_linear_flops": linear[0],
            }
            for rec, n, a, f in zip(trace.layers, counts, attention, linear)
        ],
        "total_flops": total,
        "baseline_total_flops": base_flops * layers,
        "kv_bytes": kv,
        "baseline_kv_bytes": base_kv,
        "flops_ratio": total / (base_flops * layers),
        "attention_flops_ratio": sum(attention) / (attention[0] * layers),
        "linear_flops_ratio": sum(linear) / (linear[0] * layers),
        "kv_ratio": kv / base_kv,
    }
