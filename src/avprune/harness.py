"""Deterministic toy decoder that drives the layer-wise pruning pipeline.

The decoder is a deliberately small stand-in for a real backbone: seeded
Gaussian projections, multi-head causal self-attention, a ReLU feed-forward
with expansion 4, sinusoidal positions, all float32. Its only job is to
produce reproducible attention maps; between layers the pipeline scores
surviving audiovisual tokens from those maps, prunes the scheduled budget,
and records everything in a trace. The same pipeline can replay attention
maps captured to files instead of running the forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, SchemaError
from .importance import (
    Selector,
    TdsConfig,
    plain_select,
    prune_count,
    query_importance,
    random_select,
    tds_select,
)
from .intra import IntraPlan, apply_intra
from .numerics import Rng, derive_seed
from .schedule import PruneScheduleConfig, prune_ratio
from .sequence import InterleavedSequence, Modality, TokenTable
from .trace import LayerRecord, PruneTrace


@dataclass(frozen=True)
class _LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


class ToyDecoder:
    """Multi-head causal decoder with seeded Gaussian weights scaled 1/sqrt(d)."""

    def __init__(self, layers: int, heads: int, d: int, seed: int):
        if layers < 1 or heads < 1:
            raise InvalidInput("layers and heads must be positive")
        if d % heads != 0:
            raise InvalidInput(f"model dim {d} not divisible by {heads} heads")
        self.layers = layers
        self.heads = heads
        self.d = d
        self.seed = seed
        scale = 1.0 / math.sqrt(d)
        shapes = ((d, d),) * 4 + ((d, 4 * d), (4 * d, d))  # wq wk wv wo w1 w2, layer by layer
        sizes = [rows * cols for rows, cols in shapes] * layers
        draws = np.split(Rng(seed).gaussians(sum(sizes)), np.cumsum(sizes)[:-1])

        def weight(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
            w = (g * scale).reshape(shape).astype(np.float32)
            w.setflags(write=False)
            return w

        self.weights = tuple(
            _LayerWeights(*map(weight, draws[6 * i : 6 * i + 6], shapes)) for i in range(layers)
        )


def sinusoidal_positions(positions, d: int) -> np.ndarray:
    """Standard sin/cos positional encoding rows for the given positions."""
    pos = np.asarray(positions, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (idx - idx % 2) / d)
    pe = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return pe.astype(np.float32)


def _forward_layer(
    x: np.ndarray, w: _LayerWeights, heads: int, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One decoder layer; returns (new hidden states, head-averaged probs of ``rows``)."""
    n, d = x.shape
    head_dim = d // heads
    q = (x @ w.wq).reshape(n, heads, head_dim).transpose(1, 0, 2)
    k = (x @ w.wk).reshape(n, heads, head_dim).transpose(1, 0, 2)
    v = (x @ w.wv).reshape(n, heads, head_dim).transpose(1, 0, 2)

    # One (heads, n, n) buffer goes from scores to probs in place.
    probs = q @ k.transpose(0, 2, 1)
    probs /= np.float32(math.sqrt(head_dim))
    col = np.arange(n)
    np.copyto(probs, -np.inf, where=col > col[:, None])  # exp(-inf) = 0: causal entries are exact zeros
    probs -= probs.max(axis=2, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=2, keepdims=True)

    # One full-size call, never row blocks: OpenBLAS picks its sgemm path from
    # M*N*K, so a block's row count would change the rounding of the context.
    context = (probs @ v).transpose(1, 0, 2).reshape(n, d)
    x = x + context @ w.wo
    x = x + np.maximum(x @ w.w1, np.float32(0.0)) @ w.w2
    return x, probs[:, rows].mean(axis=0)


@dataclass(frozen=True)
class AttentionRecord:
    """One layer's text-to-audiovisual attention: what a run observes, dumps and replays.

    The only attention-map type, and the only place its rules live. The
    values are post-softmax probabilities of the text rows restricted to the
    audiovisual columns, so each lies in [0, 1] and a row sums to at most
    one; each column's token id appears once. Breaking a rule is a
    SchemaError naming the layer.
    """

    layer: int
    col_ids: np.ndarray  # int64 token id of each column
    values: np.ndarray  # (text rows, AV cols) float32, read-only

    def __post_init__(self):
        ids = np.asarray(self.col_ids, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float32).view()
        values.setflags(write=False)  # on a view, so the caller's array stays writable
        object.__setattr__(self, "col_ids", ids)
        object.__setattr__(self, "values", values)
        where = f"layer {self.layer}"
        if values.ndim != 2:
            raise SchemaError(f"{where}: attention values form a rank-{values.ndim} tensor, not a matrix")
        if ids.shape != (values.shape[1],):
            raise SchemaError(f"{where}: {ids.size} ids for {values.shape[1]} columns")
        # Sorted neighbours find a repeat about ten times faster than np.unique.
        ordered = np.sort(ids)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise SchemaError(f"{where}: token id {repeated[0]} names more than one column")
        if not np.all((values >= 0.0) & (values <= 1.0)):  # NaN fails both comparisons
            raise SchemaError(f"{where}: attention values must be finite and within [0, 1]")
        # Text rows hold part of a softmax row, so none can carry more than 1.
        sums = values.sum(axis=1, dtype=np.float64)
        over = np.flatnonzero(sums > 1.0 + 1e-4)
        if over.size:
            raise SchemaError(f"{where}: text row {over[0]} sums to {sums[over[0]]:.6g}, above 1")

    def take(self, cols: np.ndarray) -> AttentionRecord:
        """The record restricted to distinct columns ``cols``; a column subset of a valid map needs no checks."""
        record, values = object.__new__(AttentionRecord), self.values[:, cols]
        values.setflags(write=False)
        object.__setattr__(record, "layer", self.layer)
        object.__setattr__(record, "col_ids", self.col_ids[cols])
        object.__setattr__(record, "values", values)
        return record


def _pruning_loop(
    seq: InterleavedSequence,
    sched: PruneScheduleConfig,
    tds: TdsConfig,
    selector: Selector,
    layer_map,
    *,
    seed: int,
    observer=None,
) -> PruneTrace:
    """Score, select and prune layer by layer.

    ``layer_map(layer, tokens, rows, cols)`` returns the layer's
    AttentionRecord from text rows ``rows`` to audiovisual columns ``cols`` of
    the survivors ``tokens``; ``observer``, if given, receives each one.
    The random selector draws from a stream derived from ``seed``.
    """
    tokens = seq.tokens
    selector_rng = Rng(derive_seed(seed, 0x5E1EC7))
    max_chunk = seq.max_chunk_index
    records = []
    for layer in range(sched.layers):
        rows = np.flatnonzero(tokens.mask(Modality.QUERY_TEXT))
        cols = np.flatnonzero(tokens.is_audiovisual)
        record, columns = layer_map(layer, tokens, rows, cols), tokens[cols]
        if observer is not None:
            observer(record)
        n_audio, n_video = tokens.count(Modality.AUDIO), tokens.count(Modality.VIDEO)
        n_text = len(tokens) - n_audio - n_video
        p_l = prune_ratio(layer, sched)
        k_l = prune_count(n_audio, n_video, p_l)
        effective = Selector.PLAIN if selector is Selector.TDS and layer < tds.start_layer else selector
        pruned = np.empty(0, dtype=np.int64)
        if k_l > 0:
            if effective is Selector.RANDOM:
                pruned = random_select(columns.id, k_l, selector_rng)
            elif effective is Selector.TDS:
                pruned = tds_select(query_importance(record.values, columns), k_l, tds, max_chunk)
            else:
                pruned = plain_select(query_importance(record.values, columns), k_l)
            tokens = tokens[~np.isin(tokens.id, pruned)]
        records.append(
            LayerRecord(
                layer=layer,
                p_l=p_l,
                k_l=k_l,
                pruned_ids=tuple(pruned.tolist()),
                n_audio=n_audio,
                n_video=n_video,
                n_text=n_text,
                selector=effective.value,
            )
        )
    return PruneTrace(layers=tuple(records))


def _apply_intra_plan(seq: InterleavedSequence, intra: IntraPlan | None) -> InterleavedSequence:
    return seq if intra is None else apply_intra(seq, intra)[0]


def run_with_pruning(
    seq: InterleavedSequence,
    model: ToyDecoder,
    sched: PruneScheduleConfig,
    tds: TdsConfig,
    selector: Selector = Selector.TDS,
    intra: IntraPlan | None = None,
    *,
    observer=None,
) -> PruneTrace:
    """Forward the toy decoder, pruning scheduled budgets between layers.

    ``observer``, if given, is called with each layer's AttentionRecord (the
    dump format), e.g. ``observer=records.append``.
    """
    if sched.layers != model.layers:
        raise InvalidInput("schedule and model layer counts differ")
    if seq.n == 0:
        raise InvalidInput("sequence is empty")
    if seq.d != model.d:
        raise InvalidInput(f"sequence dim {seq.d} does not match model dim {model.d}")

    working = _apply_intra_plan(seq, intra)
    x = working.embeddings.astype(np.float32) + sinusoidal_positions(working.tokens.id, model.d)
    held = working.tokens.id  # token id of each row of x

    def layer_map(layer: int, tokens: TokenTable, rows: np.ndarray, cols: np.ndarray) -> AttentionRecord:
        nonlocal x, held
        x = x[np.isin(held, tokens.id)]  # drop the rows pruned since the last layer; ids are unique
        held = tokens.id
        x, avg = _forward_layer(x, model.weights[layer], model.heads, rows)
        return AttentionRecord(layer=layer, col_ids=tokens.id[cols], values=avg[:, cols])

    return _pruning_loop(working, sched, tds, selector, layer_map, seed=model.seed, observer=observer)


def run_with_injected_attention(
    seq: InterleavedSequence,
    maps,
    sched: PruneScheduleConfig,
    tds: TdsConfig,
    selector: Selector = Selector.TDS,
    intra: IntraPlan | None = None,
    *,
    replay_seed: int = 0,
    observer=None,
) -> PruneTrace:
    """Replay externally captured attention maps through the same pipeline.

    ``maps`` holds one AttentionRecord per layer; columns are re-indexed by
    token id, so each record must cover every audiovisual survivor entering
    its layer, and layer 0's must hold exactly those ids (otherwise, or on a
    wrong row count, SchemaError).
    ``replay_seed`` seeds the random selector, standing in for the model
    seed of a forward run. ``observer`` sees the replayed maps restricted to
    each layer's survivors, as in a forward run.
    """
    maps = list(maps)
    if len(maps) < sched.layers:
        raise InvalidInput(f"need {sched.layers} attention maps, got {len(maps)}")
    for layer, rec in enumerate(maps[: sched.layers]):
        if rec.layer != layer:
            raise InvalidInput(f"attention map {layer} labeled {rec.layer}")

    working = _apply_intra_plan(seq, intra)

    def layer_map(layer: int, tokens: TokenTable, rows: np.ndarray, cols: np.ndarray) -> AttentionRecord:
        # The record checked its own rules; what is left depends on this run.
        rec = maps[layer]
        want = tokens.id[cols]
        if layer == 0 and not np.array_equal(np.sort(rec.col_ids), np.sort(want)):
            raise SchemaError(
                f"layer 0: the attention columns ({rec.col_ids.size}) are not the {want.size} "
                f"audiovisual tokens entering it (chunks={seq.max_chunk_index + 1}, intra="
                f"{'on' if intra else 'off'}); replay under the dump's sequence and intra settings"
            )
        missing = want[~np.isin(want, rec.col_ids)]
        if missing.size:
            raise SchemaError(f"layer {layer}: no attention column for token id {missing[0]}")
        if rec.values.shape[0] != len(rows):
            raise SchemaError(
                f"layer {layer}: expected {len(rows)} text rows, got {rec.values.shape[0]}"
            )
        order = np.argsort(rec.col_ids)
        return rec.take(order[np.searchsorted(rec.col_ids, want, sorter=order)])

    return _pruning_loop(working, sched, tds, selector, layer_map, seed=replay_seed, observer=observer)
