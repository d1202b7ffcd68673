import math
import tracemalloc

import numpy as np
import pytest

from avprune import (
    AttentionRecord,
    ChunkSpec,
    InvalidInput,
    LayerRecord,
    Modality,
    PruneScheduleConfig,
    PruneTrace,
    SchemaError,
    Selector,
    TdsConfig,
    ToyDecoder,
    build_sequence,
    make_intra_plan,
    prune_count,
    prune_ratio,
    run_with_injected_attention,
    run_with_pruning,
)
from avprune.harness import _apply_intra_plan, _forward_layer, sinusoidal_positions

TDS = TdsConfig(lambda_div=0.2, start_layer=2)


def oracle_maps(seq, model, trace, observed, intra=None) -> list[np.ndarray]:
    """Full head-averaged map of every layer, rebuilt from the trace's survivors.

    Each map is ``_forward_layer`` over the tokens that entered its layer.
    Its query-rows x audiovisual-columns slice must equal, bit for bit, the
    AttentionRecord the run handed its observer, so what the tests check on
    these maps is what the run computed.
    """
    working = _apply_intra_plan(seq, intra)
    tokens = working.tokens
    x = working.embeddings.astype(np.float32) + sinusoidal_positions(tokens.id, model.d)
    assert [obs.layer for obs in observed] == [rec.layer for rec in trace.layers]
    maps = []
    for rec, obs in zip(trace.layers, observed):
        x, avg = _forward_layer(x, model.weights[rec.layer], model.heads, np.arange(len(x)))
        rows = np.flatnonzero(tokens.mask(Modality.QUERY_TEXT))
        cols = np.flatnonzero(tokens.is_audiovisual)
        assert np.array_equal(obs.col_ids, tokens.id[cols])
        expected = avg[np.ix_(rows, cols)]
        assert obs.values.dtype == expected.dtype and obs.values.shape == expected.shape
        assert obs.values.tobytes() == expected.tobytes()
        maps.append(avg)
        keep = ~np.isin(tokens.id, rec.pruned_ids)
        x, tokens = x[keep], tokens[keep]
    return maps


def reference_forward_layer(x, w, heads):
    """Bit reference for ``_forward_layer``: out-of-place softmax, full head average."""
    n, d = x.shape
    head_dim = d // heads
    q = (x @ w.wq).reshape(n, heads, head_dim).transpose(1, 0, 2)
    k = (x @ w.wk).reshape(n, heads, head_dim).transpose(1, 0, 2)
    v = (x @ w.wv).reshape(n, heads, head_dim).transpose(1, 0, 2)

    scores = q @ k.transpose(0, 2, 1) / np.float32(math.sqrt(head_dim))
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    scores[:, mask] = -np.inf
    probs = np.exp(scores - scores.max(axis=2, keepdims=True))
    probs /= probs.sum(axis=2, keepdims=True)

    context = (probs @ v).transpose(1, 0, 2).reshape(n, d)
    x = x + context @ w.wo
    x = x + np.maximum(x @ w.w1, np.float32(0.0)) @ w.w2
    return x, probs.mean(axis=0)


def small_setup(layers=4, heads=2, d=16, p_final=0.5, seed=3, chunks=None):
    chunks = chunks or [ChunkSpec(8, 4)]
    seq = build_sequence(2, chunks, 3, d, seed)
    model = ToyDecoder(layers=layers, heads=heads, d=d, seed=seed + 1)
    sched = PruneScheduleConfig(0.0, p_final, 0.5, 20.0, layers)
    return seq, model, sched


class TestToyDecoder:
    def test_deterministic_weights(self):
        a = ToyDecoder(2, 2, 8, seed=5)
        b = ToyDecoder(2, 2, 8, seed=5)
        assert all(
            np.array_equal(x.wq, y.wq) and np.array_equal(x.w2, y.w2)
            for x, y in zip(a.weights, b.weights)
        )

    def test_dimension_check(self):
        with pytest.raises(InvalidInput):
            ToyDecoder(2, 3, 8, seed=0)


ROW_SETS = {
    "all": lambda n: np.arange(n),
    "last-8": lambda n: np.arange(max(n - 8, 0), n),
    "middle": lambda n: np.arange(n // 4, max(3 * n // 4, n // 4 + 1), 3),
}


class TestForwardLayer:
    @pytest.mark.parametrize("rows", list(ROW_SETS))
    @pytest.mark.parametrize("d, heads", [(32, 4), (9, 3), (32, 32)])
    @pytest.mark.parametrize("n", [1, 2, 9, 177, 178, 400, 688])
    def test_matches_the_reference_bit_for_bit(self, n, d, heads, rows):
        w = ToyDecoder(1, heads, d, seed=n).weights[0]
        x = np.random.default_rng(n).standard_normal((n, d)).astype(np.float32)
        want_x, want_avg = reference_forward_layer(x, w, heads)
        picked = ROW_SETS[rows](n)
        got_x, got_avg = _forward_layer(x, w, heads, picked)
        assert got_x.tobytes() == want_x.tobytes()
        want_rows = want_avg[picked]
        assert got_avg.shape == want_rows.shape
        assert got_avg.tobytes() == want_rows.tobytes()

    def test_peak_memory_is_about_one_score_tensor(self):
        n, d, heads = 1364, 32, 4
        w = ToyDecoder(1, heads, d, seed=0).weights[0]
        x = np.random.default_rng(0).standard_normal((n, d)).astype(np.float32)
        tracemalloc.start()
        try:
            _forward_layer(x, w, heads, np.arange(n - 8, n))  # the default config's 8 query rows
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * heads * n * n * 4


class TestRunWithPruning:
    def test_zero_schedule_prunes_nothing(self):
        seq, model, _ = small_setup()
        sched = PruneScheduleConfig(0.0, 0.0, 0.5, 20.0, 4)
        trace = run_with_pruning(seq, model, sched, TDS)
        assert all(rec.k_l == 0 and rec.pruned_ids == () for rec in trace.layers)
        assert all(rec.n_audio == 4 and rec.n_video == 8 for rec in trace.layers)

    def test_budgets_match_schedule_module(self):
        seq, model, sched = small_setup()
        trace = run_with_pruning(seq, model, sched, TDS)
        n_av = seq.audiovisual_count
        for rec in trace.layers:
            assert rec.n_audio + rec.n_video == n_av
            assert rec.k_l == prune_count(rec.n_audio, rec.n_video, prune_ratio(rec.layer, sched))
            n_av -= rec.k_l

    def test_deterministic_digest(self):
        seq, model, sched = small_setup()
        first = run_with_pruning(seq, model, sched, TDS)
        second = run_with_pruning(seq, model, sched, TDS)
        assert first.digest == second.digest
        assert first == second

    def test_text_tokens_never_pruned(self):
        seq, model, sched = small_setup(p_final=0.8)
        trace = run_with_pruning(seq, model, sched, TDS)
        text_ids = set(seq.tokens.id[seq.tokens.is_text].tolist())
        for rec in trace.layers:
            assert not (set(rec.pruned_ids) & text_ids)
            assert rec.n_text == seq.text_count

    def test_causal_zeros_and_row_sums(self):
        seq, model, sched = small_setup()
        observed: list[AttentionRecord] = []
        trace = run_with_pruning(seq, model, sched, TDS, observer=observed.append)
        full_maps = oracle_maps(seq, model, trace, observed)
        assert len(full_maps) == 4
        for avg in full_maps:
            n = avg.shape[0]
            upper = avg[np.triu_indices(n, k=1)]
            assert np.all(upper == 0.0)
            sums = np.sum(avg, axis=1, dtype=np.float64)
            assert np.all(np.abs(sums - 1.0) < 1e-5)

    def test_selector_random_is_seed_stable(self):
        seq, model, sched = small_setup()
        a = run_with_pruning(seq, model, sched, TDS, Selector.RANDOM)
        b = run_with_pruning(seq, model, sched, TDS, Selector.RANDOM)
        assert a.digest == b.digest
        reseeded = ToyDecoder(model.layers, model.heads, model.d, seed=model.seed + 1)
        c = run_with_pruning(seq, reseeded, sched, TDS, Selector.RANDOM)
        assert c.digest != a.digest  # different stream, different picks

    def test_selector_column_reports_phase(self):
        seq, model, sched = small_setup(layers=5)
        trace = run_with_pruning(seq, model, sched, TdsConfig(0.2, start_layer=3))
        for rec in trace.layers:
            expected = "tds" if rec.layer >= 3 else "plain"
            assert rec.selector == expected

    def test_dimension_mismatches_rejected(self):
        seq, model, sched = small_setup()
        bad_model = ToyDecoder(layers=5, heads=2, d=16, seed=1)
        with pytest.raises(InvalidInput):
            run_with_pruning(seq, bad_model, sched, TDS)
        narrow_seq = build_sequence(1, [ChunkSpec(2, 2)], 1, 8, 0)
        with pytest.raises(InvalidInput):
            run_with_pruning(narrow_seq, model, sched, TDS)

    def test_pruning_removes_rows_only_between_layers(self):
        # Survivors' hidden states at layer l+1 must be exactly what the
        # layer computes on the full layer-l output minus the pruned rows:
        # removal never feeds back into the layer that decided it.
        seq, model, sched = small_setup(layers=3, p_final=0.6)
        observed: list[AttentionRecord] = []
        trace = run_with_pruning(seq, model, sched, TDS, observer=observed.append)
        full_maps = oracle_maps(seq, model, trace, observed)
        first_prune = next(rec.layer for rec in trace.layers if rec.k_l > 0)

        x = seq.embeddings.astype(np.float32) + sinusoidal_positions(seq.tokens.id, model.d)
        kept = seq.tokens
        for layer in range(first_prune + 1):
            x, probs = _forward_layer(x, model.weights[layer], model.heads, np.arange(len(x)))
            assert np.array_equal(probs, full_maps[layer])
            pruned = set(trace.layers[layer].pruned_ids)
            dropped = np.isin(kept.id, list(pruned))
            x = np.delete(x, np.flatnonzero(dropped), axis=0)
            kept = kept[~dropped]
        _, probs_next = _forward_layer(x, model.weights[first_prune + 1], model.heads, np.arange(len(x)))
        assert np.array_equal(probs_next, full_maps[first_prune + 1])

    def test_intra_plan_shrinks_layer_zero(self):
        seq, model, sched = small_setup(chunks=[ChunkSpec(8, 4)])
        plan = make_intra_plan(seq, audio_keep=0.5, video_prune_rate=0.5, frames_per_chunk=4, seed=7)
        trace = run_with_pruning(seq, model, sched, TDS, intra=plan)
        # audio: round(0.5*4) = 2; video: 8 - round(0.5*6)*... one window of
        # 4 frames, T=2: prune round(0.5*6)=3 -> 5 video tokens remain
        assert trace.layers[0].n_audio == 2
        assert trace.layers[0].n_video == 5


class TestInjectedAttention:
    def _uniform_records(self, seq, layers):
        # Each text row spreads its mass evenly, so it sums to one.
        av_ids = tuple(seq.tokens.id[seq.tokens.is_audiovisual].tolist())
        rows = seq.tokens.count(Modality.QUERY_TEXT)
        return [
            AttentionRecord(
                layer=l,
                col_ids=av_ids,
                values=np.full((rows, len(av_ids)), 1.0 / len(av_ids), dtype=np.float32),
            )
            for l in range(layers)
        ]

    def test_round_trip_reproduces_digest(self):
        seq, model, sched = small_setup()
        dumped: list[AttentionRecord] = []
        original = run_with_pruning(seq, model, sched, TDS, observer=dumped.append)
        redumped: list[AttentionRecord] = []
        replayed = run_with_injected_attention(
            seq, dumped, sched, TDS, replay_seed=model.seed, observer=redumped.append
        )
        assert replayed.digest == original.digest
        assert replayed == original
        # Replay observes the maps it replayed, so its dump is the forward dump.
        assert [r.layer for r in redumped] == [r.layer for r in dumped]
        for a, b in zip(dumped, redumped):
            assert np.array_equal(a.col_ids, b.col_ids)
            assert a.values.tobytes() == b.values.tobytes()

    def test_round_trip_with_random_selector(self):
        seq, model, sched = small_setup()
        dumped: list[AttentionRecord] = []
        original = run_with_pruning(seq, model, sched, TDS, Selector.RANDOM, observer=dumped.append)
        replayed = run_with_injected_attention(
            seq, dumped, sched, TDS, Selector.RANDOM, replay_seed=model.seed
        )
        assert replayed.digest == original.digest

    def test_uniform_attention_prunes_in_id_order(self):
        seq, _, sched = small_setup()
        records = self._uniform_records(seq, 4)
        trace = run_with_injected_attention(seq, records, sched, TDS, Selector.PLAIN)
        av_ids = sorted(seq.tokens.id[seq.tokens.is_audiovisual].tolist())
        pruned_in_order = [tid for rec in trace.layers for tid in sorted(rec.pruned_ids)]
        assert pruned_in_order == av_ids[: len(pruned_in_order)]

    def test_one_hot_token_survives(self):
        seq, _, sched = small_setup(p_final=0.8)
        av_ids = tuple(seq.tokens.id[seq.tokens.is_audiovisual].tolist())
        favored = av_ids[-1]
        rows = seq.tokens.count(Modality.QUERY_TEXT)
        records = []
        for l in range(4):
            values = np.zeros((rows, len(av_ids)), dtype=np.float32)
            values[:, av_ids.index(favored)] = 1.0
            records.append(AttentionRecord(layer=l, col_ids=av_ids, values=values))
        trace = run_with_injected_attention(seq, records, sched, TDS, Selector.PLAIN)
        assert all(favored not in rec.pruned_ids for rec in trace.layers)

    def test_record_ids_are_int64(self):
        values = np.zeros((1, 2), dtype=np.float32)
        rec = AttentionRecord(layer=0, col_ids=(5, 2), values=values)
        assert rec.col_ids.dtype == np.int64
        assert rec.col_ids.tolist() == [5, 2]
        assert not rec.values.flags.writeable and values.flags.writeable

    BAD_RECORDS = {
        "extra-id": r"layer 20: 13 ids for 12 columns",
        "repeated-id": r"layer 20: token id \d+ names more than one column",
        "nan": r"layer 20: attention values must be finite and within \[0, 1\]",
        "above-one": r"layer 20: attention values must be finite and within \[0, 1\]",
        "row-sum": r"layer 20: text row 1 sums to 1\.01, above 1",
    }

    @pytest.mark.parametrize("bad", BAD_RECORDS)
    def test_bad_record_is_schema_error_naming_the_layer(self, bad):
        seq, _, _ = small_setup()
        rec = self._uniform_records(seq, 1)[0]
        ids, values = rec.col_ids.tolist(), rec.values.copy()
        if bad == "extra-id":
            ids = [max(ids) + 1, *ids]
        elif bad == "repeated-id":
            ids = [*ids, ids[3]]
            values = np.hstack([values, np.zeros((values.shape[0], 1), dtype=np.float32)])
        elif bad == "nan":
            values[0, 2] = np.nan
        elif bad == "above-one":
            values[1, 0] = 1.5
        else:
            values[1] = 1.01 / values.shape[1]
        with pytest.raises(SchemaError, match=self.BAD_RECORDS[bad]):
            AttentionRecord(layer=20, col_ids=ids, values=values)

    def test_missing_layer_rejected(self):
        seq, _, sched = small_setup()
        records = self._uniform_records(seq, 3)
        with pytest.raises(InvalidInput):
            run_with_injected_attention(seq, records, sched, TDS)

    def test_missing_column_is_schema_error(self):
        seq, _, sched = small_setup()
        records = self._uniform_records(seq, 4)
        short = records[2]
        records[2] = AttentionRecord(
            layer=2, col_ids=short.col_ids[:-1], values=short.values[:, :-1]
        )
        with pytest.raises(SchemaError):
            run_with_injected_attention(seq, records, sched, TDS)

    def test_wrong_row_count_is_schema_error(self):
        seq, _, sched = small_setup()
        records = self._uniform_records(seq, 4)
        records[0] = AttentionRecord(
            layer=0, col_ids=records[0].col_ids, values=records[0].values[:-1]
        )
        with pytest.raises(SchemaError):
            run_with_injected_attention(seq, records, sched, TDS)


class TestPruneTrace:
    def _record(self, layer, k, n_audio, n_video, pruned=None):
        return LayerRecord(
            layer=layer,
            p_l=0.1,
            k_l=k,
            pruned_ids=tuple(pruned if pruned is not None else range(k)),
            n_audio=n_audio,
            n_video=n_video,
            n_text=2,
            selector="plain",
        )

    def test_accounting_identity(self):
        seq, model, sched = small_setup()
        trace = run_with_pruning(seq, model, sched, TDS)
        assert trace.total_pruned + trace.final_survivors == seq.audiovisual_count

    def test_rejects_inconsistent_counts(self):
        bad = (self._record(0, 2, 4, 4), self._record(1, 0, 4, 4))  # missing the -2
        with pytest.raises(InvalidInput):
            PruneTrace(layers=bad)

    def test_rejects_text_count_drift(self):
        first = self._record(0, 0, 4, 4)
        second = LayerRecord(
            layer=1, p_l=0.0, k_l=0, pruned_ids=(), n_audio=4, n_video=4, n_text=3, selector="plain"
        )
        with pytest.raises(InvalidInput):
            PruneTrace(layers=(first, second))

    def test_digest_is_stable_and_sensitive(self):
        a = PruneTrace(layers=(self._record(0, 1, 4, 4, pruned=(9,)), self._record(1, 0, 4, 3)))
        b = PruneTrace(layers=(self._record(0, 1, 4, 4, pruned=(9,)), self._record(1, 0, 4, 3)))
        c = PruneTrace(layers=(self._record(0, 1, 4, 4, pruned=(8,)), self._record(1, 0, 4, 3)))
        assert a.digest == b.digest
        assert a.digest != c.digest
        assert len(a.digest) == 16
