import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avprune import (
    AttentionRecord,
    ChunkSpec,
    InvalidInput,
    LayerRecord,
    Modality,
    PruneScheduleConfig,
    PruneTrace,
    Rng,
    SchemaError,
    Selector,
    TdsConfig,
    ToyDecoder,
    apply_intra,
    build_sequence,
    make_intra_plan,
    prune_count,
    prune_ratio,
    run_with_injected_attention,
    run_with_pruning,
)
from avprune import harness, tensorio
from avprune.config import ExperimentConfig
from avprune.harness import _ROW_BLOCK, _forward_layer, sinusoidal_positions

TDS = TdsConfig(lambda_div=0.2, start_layer=2)


def oracle_maps(seq, model, trace, observed, intra=None) -> list[np.ndarray]:
    """Full head-averaged map of every layer, rebuilt from the trace's survivors.

    Each map is ``_forward_layer`` over the tokens that entered its layer.
    Its query-rows x audiovisual-columns slice must equal, bit for bit, the
    AttentionRecord the run handed its observer, so what the tests check on
    these maps is what the run computed.
    """
    working = seq if intra is None else apply_intra(seq, intra)[0]
    tokens = working.tokens
    x = working.embeddings.astype(np.float32) + sinusoidal_positions(tokens.id, model.d)
    assert [obs.layer for obs in observed] == [rec.layer for rec in trace.layers]
    maps = []
    for rec, obs in zip(trace.layers, observed):
        w = model.weights[rec.layer]
        x, avg = _forward_layer(x, w, model.heads, np.arange(len(x)))
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


# Decoder widths (d, heads): the default, one not a power of two, and one head per dim.
WIDTHS = [(32, 4), (9, 3), (32, 32)]


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

    @pytest.mark.parametrize("layers, heads, d", [(1, 1, 0), (1, 2, -4), (0, 1, 4), (1, 0, 4), (1, -1, 4)])
    def test_nonpositive_sizes_rejected(self, layers, heads, d):
        with pytest.raises(InvalidInput, match="must be positive"):
            ToyDecoder(layers, heads, d, seed=0)

    @pytest.mark.parametrize("d, heads", WIDTHS)
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_weights_are_the_rounded_float64_stream(self, seed, d, heads):
        model = ToyDecoder(28, heads, d, seed)
        got = np.concatenate([w.ravel() for layer in model.weights for w in vars(layer).values()])
        want = (Rng(seed).gaussians(got.size) * (1.0 / math.sqrt(d))).astype(np.float32)
        assert got.tobytes() == want.tobytes()

    def test_init_peak_stays_near_two_float64_arrays(self):
        # The default decoder's 344,064 draws: Box-Muller writes each pair over
        # its own uniforms, and the weights are cast from the draws once.
        count = 28 * 12 * 32 * 32
        ToyDecoder(28, 4, 32, 0)  # builds the jump tables this count needs
        tracemalloc.start()
        try:
            ToyDecoder(28, 4, 32, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * count
        # Measured 5,594,144 bytes; 5,705,928 with Box-Muller in 8,192-pair blocks
        # beside its uniforms. What ran before in the process moves either by some bytes.
        assert peak < 5_650_000

    def test_every_weight_owns_its_memory(self):
        # Views of one shared buffer raised the default run's peak RSS.
        for layer in ToyDecoder(3, 4, 32, seed=1).weights:
            for w in vars(layer).values():
                assert w.dtype == np.float32
                assert w.flags.c_contiguous and w.flags.owndata and not w.flags.writeable


ROW_SETS = {
    "all": lambda n: np.arange(n),
    "last-8": lambda n: np.arange(max(n - 8, 0), n),
    "middle": lambda n: np.arange(n // 4, max(3 * n // 4, n // 4 + 1), 3),
}


# Lengths around the softmax's row-block seams: one row short of a block, a
# block, one row into the next, and the same around two blocks.
SEAM_LENGTHS = [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK, 2 * _ROW_BLOCK + 1]
# 688 and 1364 are the default and chunks=4 lengths, and 1345 (chunks-4 layer
# 10) leaves a one-row last block. The long ones leave out 32 heads, whose
# reference would hold about 1 GB of (heads, n, n) float32 temporaries.
LAYER_SHAPES = [
    (n, d, heads) for n in [1, 2, 9, *SEAM_LENGTHS, 177, 178, 400, 687, 688] for d, heads in WIDTHS
] + [(n, d, heads) for n in [1345, 1364] for d, heads in WIDTHS if heads < 32]


class TestForwardLayer:
    @pytest.mark.parametrize("rows", list(ROW_SETS))
    @pytest.mark.parametrize("n, d, heads", LAYER_SHAPES)
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
        # The heads take one (n, n) buffer in turn; measured 1.33 of it.
        n, d, heads = 1364, 32, 4
        w = ToyDecoder(1, heads, d, seed=0).weights[0]
        x = np.random.default_rng(0).standard_normal((n, d)).astype(np.float32)
        tracemalloc.start()
        try:
            _forward_layer(x, w, heads, np.arange(n - 8, n))  # the default config's 8 query rows
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 4

    def test_row_sums_over_the_pairwise_width_keep_the_full_sums_bits(self):
        # The layer sums a block's rows over [:width] and relies on the +0.0
        # right of hi adding nothing there. A numpy whose pairwise sum groups
        # a row another way fails here first.
        rng = np.random.default_rng(34)
        drawn = moved = 0
        for n in [*range(1, 130), *range(1, 2800, 64), 688, 1364, 2716]:
            ends = {*range(_ROW_BLOCK, n, _ROW_BLOCK), n}  # where the layer's blocks end
            draws = set(rng.integers(1, n + 1, size=24).tolist())
            rows = np.empty((8, n + 3), dtype=np.float32)[:, :n]  # strided, as the layer's row blocks are
            for hi in sorted(ends | draws):
                rows[:, :hi] = rng.random((8, hi), dtype=np.float32)
                rows[:, hi:] = 0.0
                full = rows.sum(axis=1)
                width = harness._pairwise_width(n, hi)
                assert hi <= width <= n
                assert rows[:, :width].sum(axis=1).tobytes() == full.tobytes(), (n, hi, width)
                if n > 128 and hi in draws:  # numpy splits rows longer than 128
                    drawn += 1
                    moved += rows[:, :hi].sum(axis=1).tobytes() != full.tobytes()
        # The control: cut at hi instead, most of the drawn blocks' sums move.
        assert drawn > 1000 and moved > 0.8 * drawn


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
        n_av = int(np.count_nonzero(seq.tokens.is_audiovisual))
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
            assert rec.n_text == len(text_ids)

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

    def test_default_run_peaks_near_one_score_tensor(self):
        cfg = ExperimentConfig.resolve()
        model = cfg.build_model()  # the weights are the run's input, not its working memory
        tracemalloc.start()
        try:
            run_with_pruning(cfg.build_sequence(), model, cfg.schedule, cfg.tds, cfg.selector)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One float32 (n0, n0) score matrix over n0 = 688 tokens; measured 1.73 of it.
        assert peak <= 2 * 688 * 688 * 4

    def test_chunks_4_run_peaks_near_one_score_tensor(self):
        cfg = ExperimentConfig.resolve(overrides={"sequence.chunks": 4})
        model, seq = cfg.build_model(), cfg.build_sequence()
        n0 = seq.n
        tracemalloc.start()
        try:
            run_with_pruning(seq, model, cfg.schedule, cfg.tds, cfg.selector)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # n0 = 1364 here; measured 1.37 of one (n0, n0) float32 matrix.
        assert peak <= 1.5 * n0 * n0 * 4

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
            w = model.weights[layer]
            x, probs = _forward_layer(x, w, model.heads, np.arange(len(x)))
            assert np.array_equal(probs, full_maps[layer])
            pruned = set(trace.layers[layer].pruned_ids)
            dropped = np.isin(kept.id, list(pruned))
            x = np.delete(x, np.flatnonzero(dropped), axis=0)
            kept = kept[~dropped]
        w = model.weights[first_prune + 1]
        _, probs_next = _forward_layer(x, w, model.heads, np.arange(len(x)))
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

    @staticmethod
    def _count_records(monkeypatch) -> list[int]:
        """Record the layer of every AttentionRecord the harness builds from now on."""
        layers = []

        def counted(**fields):
            layers.append(fields["layer"])
            return AttentionRecord(**fields)

        monkeypatch.setattr(harness, "AttentionRecord", counted)
        return layers

    @pytest.mark.parametrize(
        "selector, intra",
        [(Selector.TDS, False), (Selector.PLAIN, False), (Selector.RANDOM, False), (Selector.TDS, True)],
        ids=["tds", "plain", "random", "intra"],
    )
    def test_own_dump_replays_as_dumped(self, monkeypatch, selector, intra):
        # A run's own dump holds exactly each layer's entering columns, so replay reindexes none.
        seq, model, sched = small_setup(chunks=[ChunkSpec(8, 4), ChunkSpec(8, 4)])
        plan = None
        if intra:
            plan = make_intra_plan(seq, audio_keep=0.5, video_prune_rate=0.5, frames_per_chunk=4, seed=7)
        dumped: list[AttentionRecord] = []
        original = run_with_pruning(seq, model, sched, TDS, selector, plan, observer=dumped.append)
        assert sum(rec.k_l > 0 for rec in original.layers) >= 2
        built, redumped = self._count_records(monkeypatch), []
        replayed = run_with_injected_attention(
            seq, dumped, sched, TDS, selector, plan, replay_seed=model.seed, observer=redumped.append
        )
        assert replayed == original
        assert built == []
        assert all(a is b for a, b in zip(dumped, redumped, strict=True))

    def test_widened_records_replay_through_a_column_subset(self, monkeypatch):
        # Past layer 0, a record may hold columns no survivor needs; replay drops them.
        seq, model, sched = small_setup()
        dumped: list[AttentionRecord] = []
        original = run_with_pruning(seq, model, sched, TDS, observer=dumped.append)
        extra = seq.tokens.id.max() + 1  # no token's id
        widened = [dumped[0]] + [
            AttentionRecord(
                layer=rec.layer,
                col_ids=np.append(rec.col_ids, extra),
                values=np.hstack([rec.values, np.zeros((rec.values.shape[0], 1), np.float32)]),
            )
            for rec in dumped[1:]
        ]
        built, redumped = self._count_records(monkeypatch), []
        replayed = run_with_injected_attention(
            seq, widened, sched, TDS, replay_seed=model.seed, observer=redumped.append
        )
        assert replayed == original
        assert built == [rec.layer for rec in widened[1:]]
        for a, b in zip(dumped, redumped, strict=True):
            assert np.array_equal(a.col_ids, b.col_ids) and b.col_ids.dtype == np.int64
            assert a.values.shape == b.values.shape and a.values.tobytes() == b.values.tobytes()

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

    def test_shuffled_columns_replay_to_the_forward_digest(self, monkeypatch):
        # Written dumps list columns in ascending id order; a record may list them in any.
        seq, model, sched = small_setup()
        dumped: list[AttentionRecord] = []
        original = run_with_pruning(seq, model, sched, TDS, observer=dumped.append)
        rng = np.random.default_rng(7)
        shuffled = []
        for rec in dumped:
            perm = rng.permutation(rec.col_ids.size)
            shuffled.append(AttentionRecord(layer=rec.layer, col_ids=rec.col_ids[perm], values=rec.values[:, perm]))
            assert np.any(np.diff(shuffled[-1].col_ids) < 0)
        built, redumped = self._count_records(monkeypatch), []
        replayed = run_with_injected_attention(
            seq, shuffled, sched, TDS, replay_seed=model.seed, observer=redumped.append
        )
        assert replayed == original
        assert built == [rec.layer for rec in shuffled]
        for a, b in zip(dumped, redumped):
            assert np.array_equal(a.col_ids, b.col_ids)
            assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("layer", [1, 3])
    def test_empty_record_names_the_first_missing_id(self, layer):
        seq, _, sched = small_setup()
        records = self._uniform_records(seq, 4)
        trace = run_with_injected_attention(seq, records, sched, TDS, Selector.PLAIN)
        gone = {i for rec in trace.layers[:layer] for i in rec.pruned_ids}
        first = min(set(records[0].col_ids.tolist()) - gone)
        rows = records[layer].values.shape[0]
        records[layer] = AttentionRecord(
            layer=layer, col_ids=np.empty(0, dtype=np.int64), values=np.zeros((rows, 0), dtype=np.float32)
        )
        with pytest.raises(SchemaError, match=f"^layer {layer}: no attention column for token id {first}$"):
            run_with_injected_attention(seq, records, sched, TDS, Selector.PLAIN)

    @pytest.mark.parametrize("stray", ["pruned-earlier", "above-every-id", "text-token"])
    def test_selected_non_survivor_is_invalid_input(self, monkeypatch, stray):
        # The run must refuse it at the layer that picked it, not prune a
        # neighbour, a text token, or leave the survivors as they were.
        seq, model, sched = small_setup()
        pruning = [rec for rec in run_with_pruning(seq, model, sched, TDS, Selector.PLAIN).layers if rec.k_l]
        assert len(pruning) >= 2
        bad = {
            "pruned-earlier": pruning[0].pruned_ids[0],
            "above-every-id": seq.tokens.id.max() + 1,
            "text-token": 0,  # a system token, which survives every layer
        }[stray]
        assert stray != "text-token" or seq.tokens.modality[bad] == Modality.SYSTEM_TEXT.code
        plain_select, calls = harness.plain_select, []

        def select(columns, scores, k):
            ids = plain_select(columns, scores, k)
            calls.append(k)
            if len(calls) > 1:  # from the second pruning layer on, one pick is the stray id
                ids[0] = bad
            return np.sort(ids)

        monkeypatch.setattr(harness, "plain_select", select)
        message = f"^layer {pruning[1].layer}: selected token id {bad} is not an audiovisual survivor$"
        with pytest.raises(InvalidInput, match=message):
            run_with_pruning(seq, model, sched, TDS, Selector.PLAIN)

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
        # The highest id is the last to go under uniform attention, so it enters layer 2.
        with pytest.raises(SchemaError, match=f"^layer 2: no attention column for token id {short.col_ids[-1]}$"):
            run_with_injected_attention(seq, records, sched, TDS)

    def test_wrong_row_count_is_schema_error(self):
        seq, _, sched = small_setup()
        records = self._uniform_records(seq, 4)
        records[0] = AttentionRecord(
            layer=0, col_ids=records[0].col_ids, values=records[0].values[:-1]
        )
        with pytest.raises(SchemaError):
            run_with_injected_attention(seq, records, sched, TDS)


def recounted(seq, trace) -> list[tuple[int, int, int]]:
    """Each layer's entering (n_audio, n_video, n_text), recounted from the survivors the trace leaves."""
    tokens, counts = seq.tokens, []
    for rec in trace.layers:
        n_audio, n_video = tokens.count(Modality.AUDIO), tokens.count(Modality.VIDEO)
        counts.append((n_audio, n_video, len(tokens) - n_audio - n_video))
        pruned = np.isin(tokens.id, rec.pruned_ids)
        assert np.count_nonzero(pruned) == rec.k_l and not np.any(tokens.is_text[pruned])
        tokens = tokens[~pruned]
    return counts


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    sys_len=st.integers(0, 3),
    query_len=st.integers(1, 3),
    # (n_v, n_a) per chunk; n_v splits into 2 intra frames, and either count may be 0.
    chunks=st.lists(
        st.tuples(st.sampled_from([0, 2, 4, 6]), st.integers(0, 4)).filter(any), min_size=1, max_size=3
    ),
    selector=st.sampled_from(list(Selector)),
    intra=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_carried_counts_match_a_recount(sys_len, query_len, chunks, selector, intra, seed):
    seq = build_sequence(sys_len, [ChunkSpec(n_v, n_a) for n_v, n_a in chunks], query_len, 8, seed)
    model = ToyDecoder(layers=6, heads=2, d=8, seed=seed + 1)
    sched = PruneScheduleConfig(0.0, 0.6, 0.5, 20.0, 6)
    plan = None
    if intra:
        plan = make_intra_plan(seq, audio_keep=0.5, video_prune_rate=0.5, frames_per_chunk=2, seed=seed)
    trace = run_with_pruning(seq, model, sched, TDS, selector, plan)
    layers = [(rec.n_audio, rec.n_video, rec.n_text) for rec in trace.layers]
    assert layers == recounted(seq if plan is None else apply_intra(seq, plan)[0], trace)


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
        last = trace.layers[-1]
        total_pruned = sum(rec.k_l for rec in trace.layers)
        final_survivors = last.n_audio + last.n_video - last.k_l
        assert total_pruned + final_survivors == np.count_nonzero(seq.tokens.is_audiovisual)

    @pytest.mark.parametrize("selector", list(Selector))
    def test_lines_hold_exactly_the_record_fields(self, tmp_path, selector):
        seq, model, sched = small_setup()
        trace = run_with_pruning(seq, model, sched, TDS, selector)
        assert any(rec.k_l for rec in trace.layers)
        fields = {field.name for field in dataclasses.fields(LayerRecord)}
        assert all(json.loads(line).keys() == fields for line in trace.lines)
        tensorio.write_trace_jsonl(tmp_path / "trace.jsonl", trace, config_digest="cfg")
        back, summary = tensorio.read_trace_jsonl(tmp_path / "trace.jsonl")
        assert back.layers == trace.layers
        assert summary["digest"] == trace.digest

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
