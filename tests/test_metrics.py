
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avprune import (
    AttentionRecord,
    ChunkSpec,
    DegenerateInput,
    InvalidInput,
    LayerRecord,
    Modality,
    PairKind,
    PruneScheduleConfig,
    PruneTrace,
    Rng,
    TdsConfig,
    ToyDecoder,
    build_sequence,
    cosine_distribution,
    cost_model,
    retention_per_modality,
    run_with_injected_attention,
    run_with_pruning,
    top20_recall,
)
from avprune import metrics
from avprune.metrics import _DRAW_BLOCK, HISTOGRAM_BIN_WIDTH, _sample_distinct
from avprune.numerics import _LANE


def scalar_sample_distinct(n_total, k, rng):
    """Reference Floyd sampling, one scalar ``below`` per pick."""
    chosen = set()
    for j in range(n_total - k, n_total):
        t = rng.below(j + 1)
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def scalar_cosine_distribution(emb, modalities, pair_kind, sample_cap=100_000, rng=None):
    """Reference histogram, pair by pair: (counts, pairs_used)."""
    audio = [i for i, m in enumerate(modalities) if m is Modality.AUDIO]
    video = [i for i, m in enumerate(modalities) if m is Modality.VIDEO]
    read = audio + video
    unit = np.zeros_like(emb)
    unit[read] = emb[read] / np.linalg.norm(emb[read], axis=1)[:, None]
    if pair_kind is PairKind.AV:
        n_pairs = len(audio) * len(video)

        def unrank(p):
            return audio[p // len(video)], video[p % len(video)]

    else:
        group = audio if pair_kind is PairKind.AA else video
        n = len(group)
        n_pairs = n * (n - 1) // 2

        def unrank(p):
            i = int((2 * n - 1 - math.sqrt((2 * n - 1) ** 2 - 8 * p)) // 2)
            return group[i], group[p - i * (2 * n - i - 1) // 2 + i + 1]

    picks = range(n_pairs) if n_pairs <= sample_cap else scalar_sample_distinct(n_pairs, sample_cap, rng)
    counts = [0] * 40
    for p in picks:
        i, j = unrank(p)
        c = min(1.0, max(-1.0, float(unit[i] @ unit[j])))
        counts[min(max(int((c + 1.0) // HISTOGRAM_BIN_WIDTH), 0), 39)] += 1
    return tuple(counts), len(picks)


class TestTop20Recall:
    def test_uniform_map(self):
        values = np.ones((2, 5))  # E = 10 entries, top ceil(2) = 2
        assert top20_recall(values) == 2.0 / 10.0

    def test_one_hot_row(self):
        values = np.zeros((1, 7))
        values[0, 3] = 1.0
        assert top20_recall(values) == 1.0

    def test_sort_oracle(self):
        values = np.array([[0.4, 0.3, 0.1], [0.1, 0.05, 0.05]])
        assert top20_recall(values) == pytest.approx(0.7)

    def test_scale_invariance(self):
        values = np.array([[0.4, 0.3, 0.1, 0.1, 0.05, 0.05]])
        assert top20_recall(values) == pytest.approx(top20_recall(values * 37.0))

    def test_monotone_under_concentration(self):
        # Majorization pairs with equal totals: more concentrated mass
        # never lowers the recall.
        pairs = [
            ([0.25, 0.25, 0.25, 0.25], [0.4, 0.3, 0.2, 0.1]),
            ([0.4, 0.3, 0.2, 0.1], [0.7, 0.1, 0.1, 0.1]),
            ([0.7, 0.1, 0.1, 0.1], [1.0, 0.0, 0.0, 0.0]),
        ]
        for flat, peaked in pairs:
            assert top20_recall(np.array([peaked])) >= top20_recall(np.array([flat]))

    def test_per_row_mode(self):
        values = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [0.2, 0.2, 0.2, 0.2, 0.2]])
        assert top20_recall(values, per_row=True) == pytest.approx((1.0 + 0.2) / 2.0)

    def test_all_zero_map_degenerate(self):
        with pytest.raises(DegenerateInput):
            top20_recall(np.zeros((2, 3)))
        with pytest.raises(InvalidInput):
            top20_recall(np.zeros((0, 3)))


def zero_schedule_trace(layers=4, n_audio=4, n_video=8):
    recs = tuple(
        LayerRecord(
            layer=l, p_l=0.0, k_l=0, pruned_ids=(), n_audio=n_audio, n_video=n_video,
            n_text=2, selector="plain",
        )
        for l in range(layers)
    )
    return PruneTrace(layers=recs)


class TestRetentionPerModality:
    def test_zero_schedule_constant_one(self):
        audio, video = retention_per_modality(zero_schedule_trace())
        assert audio == [1.0] * 4
        assert video == [1.0] * 4

    def test_recount_oracle_from_pruned_ids(self):
        seq = build_sequence(2, [ChunkSpec(8, 4)], 3, 16, 3)
        model = ToyDecoder(4, 2, 16, seed=4)
        sched = PruneScheduleConfig(0.0, 0.5, 0.5, 20.0, 4)
        trace = run_with_pruning(seq, model, sched, TdsConfig(0.2, 2))
        n_a, n_v = 4, 8
        for rec, a_ratio, v_ratio in zip(trace.layers, *retention_per_modality(trace)):
            assert rec.n_audio == n_a and rec.n_video == n_v
            assert a_ratio == n_a / 4 and v_ratio == n_v / 8
            pruned = seq.tokens[np.isin(seq.tokens.id, rec.pruned_ids)]
            n_a -= pruned.count(Modality.AUDIO)
            n_v -= pruned.count(Modality.VIDEO)

    def test_audio_favoring_attention_starves_video(self):
        seq = build_sequence(0, [ChunkSpec(8, 4)], 2, 8, 1)
        av = seq.tokens[seq.tokens.is_audiovisual]
        # Each text row spreads its mass evenly over the audio columns.
        values = np.array([av.mask(Modality.AUDIO)] * 2, dtype=np.float32) / av.count(Modality.AUDIO)
        records = [AttentionRecord(layer=l, col_ids=av.id, values=values) for l in range(4)]
        sched = PruneScheduleConfig(0.0, 0.3, 0.5, 20.0, 4)
        trace = run_with_injected_attention(seq, records, sched, TdsConfig(0.2, 99))
        audio, video = retention_per_modality(trace)
        assert trace.total_pruned > 0
        assert audio[-1] == 1.0  # audio untouched while video supply lasts
        assert video[-1] < 1.0
        assert all(v <= a for a, v in zip(audio, video))

    def test_series_non_increasing_and_start_at_one(self):
        seq = build_sequence(1, [ChunkSpec(6, 6)], 2, 16, 9)
        model = ToyDecoder(5, 2, 16, seed=2)
        sched = PruneScheduleConfig(0.0, 0.6, 0.5, 20.0, 5)
        trace = run_with_pruning(seq, model, sched, TdsConfig(0.2, 2))
        for series in retention_per_modality(trace):
            assert series[0] == 1.0
            assert all(b <= a for a, b in zip(series, series[1:]))


class TestCosineDistribution:
    def _modalities(self, n_audio, n_video):
        return [Modality.AUDIO] * n_audio + [Modality.VIDEO] * n_video

    def test_identical_vectors_single_bin(self):
        emb = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))
        hist = cosine_distribution(emb, self._modalities(5, 0), PairKind.AA)
        assert hist.pairs_used == 10
        assert hist.counts[-1] == 10  # [0.95, 1.0] bin
        assert sum(hist.counts) == 10

    def test_disjoint_subspaces_av_mass_at_zero(self):
        audio = np.zeros((4, 6))
        audio[:, 0] = [1.0, 2.0, -1.0, 0.5]
        video = np.zeros((3, 6))
        video[:, 3] = [1.0, -2.0, 3.0]
        emb = np.vstack([audio, video])
        hist = cosine_distribution(emb, self._modalities(4, 3), PairKind.AV)
        zero_bin = int((0.0 + 1.0) // 0.05)
        assert hist.counts[zero_bin] == 12
        assert sum(hist.counts) == 12

    def test_hand_vectors_match_enumeration_oracle(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]])
        modalities = self._modalities(4, 0)
        hist = cosine_distribution(vectors, modalities, PairKind.AA)
        unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        expected = [0] * 40
        for i in range(4):
            for j in range(i + 1, 4):
                c = float(np.clip(unit[i] @ unit[j], -1, 1))
                expected[min(int((c + 1.0) // 0.05), 39)] += 1
        assert list(hist.counts) == expected

    def test_sampling_cap_path(self):
        rng_np = np.random.default_rng(0)
        emb = rng_np.normal(size=(60, 8))
        modalities = self._modalities(30, 30)
        full = cosine_distribution(emb, modalities, PairKind.AV)
        sampled = cosine_distribution(emb, modalities, PairKind.AV, sample_cap=200, rng=Rng(5))
        assert full.pairs_used == 900
        assert sampled.pairs_used == 200
        assert sum(sampled.counts) == 200
        again = cosine_distribution(emb, modalities, PairKind.AV, sample_cap=200, rng=Rng(5))
        assert sampled.counts == again.counts  # deterministic sampling

    def test_triangular_unranking_covers_all_pairs(self):
        emb = np.eye(7)
        hist = cosine_distribution(emb, self._modalities(7, 0), PairKind.AA)
        assert hist.pairs_used == 21
        zero_bin = int(1.0 // 0.05)
        assert hist.counts[zero_bin] == 21  # orthonormal basis: every cosine 0

    def test_insufficient_tokens(self):
        emb = np.ones((2, 3))
        with pytest.raises(InvalidInput):
            cosine_distribution(emb, [Modality.AUDIO, Modality.VIDEO], PairKind.AA)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_undefined_rows_of_the_pair_kind_are_degenerate(self, bad):
        emb = np.random.default_rng(1).normal(size=(6, 3))
        emb[4] = bad  # a video row
        modalities = self._modalities(3, 3)
        with pytest.raises(DegenerateInput, match="row 4"):
            cosine_distribution(emb, modalities, PairKind.VV)
        with pytest.raises(DegenerateInput, match="row 4"):
            cosine_distribution(emb, modalities, PairKind.AV)
        assert cosine_distribution(emb, modalities, PairKind.AA).pairs_used == 3  # row 4 unread

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected(self, cap):
        emb = np.random.default_rng(2).normal(size=(4, 3))
        with pytest.raises(InvalidInput, match="sample_cap"):
            cosine_distribution(emb, self._modalities(2, 2), PairKind.AV, sample_cap=cap, rng=Rng(0))


@st.composite
def cosine_cases(draw):
    """(embeddings, modalities, cap): interleaved modalities, duplicated rows and integer rows.

    Widths reach 2048. Groups of 1000+ rows take caps of 1-20, so a block's
    few picks spread over many Gram windows.
    """
    big = draw(st.booleans())
    sizes = st.integers(1000, 1200) if big else st.integers(2, 300)
    n_audio, n_video, n_text = draw(sizes), draw(sizes), draw(st.integers(0, 5))
    d = draw(st.integers(1, 64) | st.integers(65, 256 if big else 2048))
    cap = draw(st.integers(1, 20) if big else st.integers(1, 20) | st.integers(1, 3000) | st.just(100_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    emb = rng.normal(size=(n_audio + n_video + n_text, d))
    if draw(st.booleans()):
        emb = np.round(emb * 2.0)  # integer rows put cosines on bin edges
        emb[~emb.any(axis=1), 0] = 1.0
    for _ in range(draw(st.integers(0, 20))):  # copy (or scale) one row onto another
        src, dst = rng.integers(len(emb), size=2)
        emb[dst] = emb[src] * draw(st.sampled_from([1.0, 2.0, -1.0]))
    modalities = [Modality.AUDIO] * n_audio + [Modality.VIDEO] * n_video + [Modality.QUERY_TEXT] * n_text
    order = rng.permutation(len(modalities))
    return emb, [modalities[i] for i in order], cap


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=cosine_cases(), pair_kind=st.sampled_from(list(PairKind)), seed=st.integers(0, 2**64 - 1))
def test_cosine_distribution_matches_the_scalar_loop(case, pair_kind, seed):
    emb, modalities, cap = case
    hist = cosine_distribution(emb, modalities, pair_kind, sample_cap=cap, rng=Rng(seed))
    expected = scalar_cosine_distribution(emb, modalities, pair_kind, sample_cap=cap, rng=Rng(seed))
    assert (hist.counts, hist.pairs_used) == expected


@pytest.mark.parametrize("pair_kind", list(PairKind))
@pytest.mark.parametrize("out_of_range", ["width", "norm"])
def test_the_exact_path_outside_the_gram_bound(monkeypatch, pair_kind, out_of_range):
    emb = np.round(np.random.default_rng(3).normal(size=(90, 12)) * 2.0)
    emb[~emb.any(axis=1), 0] = 1.0
    modalities = [Modality.AUDIO, Modality.VIDEO, Modality.VIDEO] * 30
    if out_of_range == "width":
        monkeypatch.setattr(metrics, "_GRAM_MAX_D", 11)
    else:
        emb[:3] *= 2.0**-530  # squares round in the subnormal range, so unit rows are off unit norm
    hist = cosine_distribution(emb, modalities, pair_kind, sample_cap=500, rng=Rng(4))
    expected = scalar_cosine_distribution(emb, modalities, pair_kind, sample_cap=500, rng=Rng(4))
    assert (hist.counts, hist.pairs_used) == expected


@pytest.mark.parametrize("cap, bound_mib", [(10, 2), (3000, 3), (100_000, 7)])
def test_peak_memory_of_a_benchmark_sized_vv_pass(cap, bound_mib):
    # The analyze benchmark's VV layout: 1152 video rows of width 32. A Gram
    # over all the rows a block's picks span would take 10 MiB.
    emb = np.random.default_rng(5).normal(size=(1152 + 200, 32))
    modalities = [Modality.VIDEO] * 1152 + [Modality.AUDIO] * 200
    tracemalloc.start()
    try:
        hist = cosine_distribution(emb, modalities, PairKind.VV, sample_cap=cap, rng=Rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.pairs_used == cap
    assert peak < bound_mib * 2**20


class ScriptedDraws:
    """Stands in for an ``Rng`` whose bounded draws are given in advance."""

    def __init__(self, draws):
        self.draws = list(draws)

    def belows(self, ns):
        out, self.draws = self.draws[: len(ns)], self.draws[len(ns) :]
        assert all(0 <= t < n for t, n in zip(out, ns))
        return np.array(out, dtype=np.int64)

    def below(self, n):
        return int(self.belows([n])[0])


class TestSampleDistinct:
    """The whole-array Floyd sampler against the one-draw-per-pick reference."""

    @staticmethod
    def assert_matches_scalar(n_total, k, seed):
        rng, ref = Rng(seed), Rng(seed)
        picks = _sample_distinct(n_total, k, rng)
        assert picks.tobytes() == np.array(scalar_sample_distinct(n_total, k, ref), dtype=np.int64).tobytes()
        assert rng.next_u64() == ref.next_u64()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        sizes=st.integers(2, 3000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_the_scalar_loop(self, sizes, seed):
        self.assert_matches_scalar(*sizes, seed)

    @pytest.mark.parametrize(
        "n_total, k",
        [
            (2, 1),
            (5000, 1),
            (5000, 4999),  # k = n_total - 1 makes the longest collision chains
            (2 * _DRAW_BLOCK, _DRAW_BLOCK + 1),
            (3 * _DRAW_BLOCK + 101, 3 * _DRAW_BLOCK + 100),
            (10 * _DRAW_BLOCK, 2 * _DRAW_BLOCK + 7),
            (662_976, 100_000),  # the analyze benchmark's VV sample
            (2**34 + 3, 9),
            (2**59 - 1, 9),  # k = 9 packs steps into 4 bits: the largest n_total packed,
            (2**59, 9),  # and the smallest that takes the argsort
            (2**62 + 7, 40),  # n_total * k is far above 2**63
        ],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_the_scalar_loop_at_the_edges(self, n_total, k, seed):
        self.assert_matches_scalar(n_total, k, seed)

    @pytest.mark.parametrize("n_total", [2**60 - 1, 2**60, 2**62 + 7])  # k = 6 packs below 2**60
    def test_scripted_repeats_and_links(self, n_total):
        # A repeat, a chain of two links to kept steps and a chain of two
        # to unkept ones, on either side of the packing bound.
        lo = n_total - 6
        draws = [5, 5, lo + 1, lo + 2, lo, lo + 4]
        picks = _sample_distinct(n_total, 6, ScriptedDraws(draws))
        assert picks.tolist() == scalar_sample_distinct(n_total, 6, ScriptedDraws(draws))
        assert picks.tolist() == [5, lo, lo + 1, lo + 2, lo + 3, lo + 4]

    def test_draw_blocks_are_whole_lanes(self):
        assert _DRAW_BLOCK % _LANE == 0

    def test_peak_memory_of_a_benchmark_sized_sample(self):
        tracemalloc.start()
        try:
            _sample_distinct(662_976, 100_000, Rng(1))  # the analyze benchmark's VV sample
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def constant_retention_trace(layers, n0_av, later_av, n_text=0):
    # Layer 0 enters with n0_av and prunes down to later_av in one step.
    k0 = n0_av - later_av
    recs = [
        LayerRecord(
            layer=0, p_l=0.5, k_l=k0, pruned_ids=tuple(range(k0)),
            n_audio=n0_av // 2, n_video=n0_av - n0_av // 2, n_text=n_text, selector="plain",
        )
    ]
    for l in range(1, layers):
        recs.append(
            LayerRecord(
                layer=l, p_l=0.0, k_l=0, pruned_ids=(),
                n_audio=later_av // 2, n_video=later_av - later_av // 2,
                n_text=n_text, selector="plain",
            )
        )
    return PruneTrace(layers=tuple(recs))


class TestCostModel:
    @pytest.mark.parametrize(
        "layers", [(LayerRecord(0, 0.0, 0, (), n_audio=0, n_video=0, n_text=0, selector="plain"),), ()],
        ids=["empty-layer-0", "no-layers"],
    )
    def test_layer_0_without_tokens_is_degenerate(self, layers):
        # The baseline holds layer 0's count everywhere, so every ratio would divide by zero.
        with pytest.raises(DegenerateInput, match="^layer 0 enters with no tokens, so every cost ratio is undefined$"):
            cost_model(PruneTrace(layers=layers), d=64, bytes_per_element=2)

    def test_constant_retention_term_ratios(self):
        # r = 0.5, d = 64, n0 = 100: attention scales as r^2, linear as r at
        # every constant-retention layer.
        trace = constant_retention_trace(layers=6, n0_av=100, later_av=50)
        report = cost_model(trace, d=64, bytes_per_element=2)
        for row in report["per_layer"][1:]:
            attn_ratio = row["attention_flops"] / row["baseline_attention_flops"]
            linear_ratio = row["linear_flops"] / row["baseline_linear_flops"]
            assert abs(attn_ratio - 0.25) < 1e-9
            assert abs(linear_ratio - 0.5) < 1e-9
        # direct formula oracle at one layer
        row = report["per_layer"][2]
        assert row["attention_flops"] == 4 * 50 * 50 * 64
        assert row["linear_flops"] == 24 * 50 * 64 * 64
        assert row["flops"] == row["attention_flops"] + row["linear_flops"]
        assert (row["layer"], row["n"], row["baseline_n"]) == (2, 50, 100)
        assert row["baseline_flops"] == 4 * 100 * 100 * 64 + 24 * 100 * 64 * 64

    def test_zero_schedule_ratios_are_one(self):
        report = cost_model(zero_schedule_trace(), d=16, bytes_per_element=4)
        for ratio in ("flops_ratio", "attention_flops_ratio", "linear_flops_ratio", "kv_ratio"):
            assert report[ratio] == 1.0

    def test_baseline_dominates(self):
        seq = build_sequence(1, [ChunkSpec(8, 4)], 2, 16, 0)
        model = ToyDecoder(4, 2, 16, seed=1)
        sched = PruneScheduleConfig(0.0, 0.5, 0.5, 20.0, 4)
        trace = run_with_pruning(seq, model, sched, TdsConfig(0.2, 2))
        report = cost_model(trace, d=16, bytes_per_element=2)
        assert report["baseline_total_flops"] >= report["total_flops"]
        assert report["baseline_kv_bytes"] >= report["kv_bytes"]
        assert 0.0 < report["flops_ratio"] <= 1.0
        assert 0.0 < report["kv_ratio"] <= 1.0

    def test_kv_bytes_formula(self):
        trace = constant_retention_trace(layers=3, n0_av=10, later_av=4, n_text=2)
        report = cost_model(trace, d=8, bytes_per_element=2)
        assert report["kv_bytes"] == 2 * 12 * 8 * 2 + 2 * (2 * 6 * 8 * 2)
        assert report["baseline_kv_bytes"] == 3 * (2 * 12 * 8 * 2)

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            cost_model(zero_schedule_trace(), d=0, bytes_per_element=2)
