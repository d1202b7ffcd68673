import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avprune import (
    ChunkSpec,
    DegenerateInput,
    IntraPlan,
    InvalidInput,
    Modality,
    apply_intra,
    audio_intra_prune,
    build_sequence,
    round_half_away,
    video_ttm,
)
from avprune.intra import WINDOW


def cosine(u, v) -> float:
    """Scalar cosine similarity clamped to [-1, 1] against rounding: the rule video_ttm vectorizes."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape or a.size == 0:
        raise InvalidInput("cosine expects two equal-length 1-D vectors")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInput("cosine undefined for a zero vector")
    if np.array_equal(a, b):  # identical inputs are exactly parallel
        return 1.0
    return float(min(1.0, max(-1.0, float(a @ b) / (na * nb))))


def scalar_video_ttm(frames, prune_rate):
    """Reference TTM rule, token by token: retained (frame, token) pairs."""
    n_frames, t_per, _ = frames.shape
    retained = set()
    for start in range(0, n_frames, WINDOW):
        retained.update((start, t) for t in range(t_per))
        candidates = []
        for f in range(start + 1, min(start + WINDOW, n_frames)):
            for t in range(t_per):
                try:
                    sim = cosine(frames[f, t], frames[start, t])
                except DegenerateInput:
                    sim = 0.0
                candidates.append((sim, f, t))
        drop = round_half_away(prune_rate * len(candidates))
        candidates.sort(key=lambda c: (-c[0], -c[1], -c[2]))
        retained.update((f, t) for _, f, t in candidates[drop:])
    return retained


def kept_pairs(mask, t_per):
    """The (frame, token) pairs a frame-major keep mask retains."""
    return {divmod(int(i), t_per) for i in np.flatnonzero(mask)}


class TestCosine:
    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_identity(self):
        assert cosine([3.0, -4.0, 5.0], [3.0, -4.0, 5.0]) == pytest.approx(1.0)

    def test_known_value(self):
        # 4 / (sqrt(5) * sqrt(5))
        assert cosine([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.8)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=8),
        st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=8),
    )
    def test_symmetry_and_scale(self, u, v):
        n = min(len(u), len(v))
        u, v = u[:n], v[:n]
        # Skip vectors whose squared norm underflows.
        if max(abs(x) for x in u) < 1e-6 or max(abs(x) for x in v) < 1e-6:
            return
        assert cosine(u, v) == pytest.approx(cosine(v, u))
        assert cosine([3.0 * x for x in u], v) == pytest.approx(cosine(u, v), abs=1e-12)

    def test_zero_vector_degenerate(self):
        with pytest.raises(DegenerateInput):
            cosine([0.0, 0.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            cosine([1.0], [1.0, 2.0])


def test_round_half_away():
    assert round_half_away(2.5) == 3
    assert round_half_away(3.5) == 4
    assert round_half_away(-2.5) == -3
    assert round_half_away(2.4) == 2
    assert round_half_away(0.0) == 0


class TestAudioPrune:
    def test_sorted_take_oracle(self):
        scores = [0.5, 0.1, 0.9, 0.3, 0.2, 0.7, 0.4, 0.6, 0.05, 0.8]
        assert set(np.flatnonzero(audio_intra_prune(scores, 0.7))) == {0, 2, 3, 5, 6, 7, 9}

    def test_keep_everything(self):
        assert audio_intra_prune([0.2, 0.4, 0.1], 1.0).tolist() == [True, True, True]

    def test_tie_break_keeps_lower_index(self):
        assert audio_intra_prune([0.5, 0.5, 0.5, 0.5], 0.5).tolist() == [True, True, False, False]

    def test_random_instances_match_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            scores = rng.random(n)
            if n > 3:
                scores[: n // 2] = scores[n // 2 : 2 * (n // 2)]  # repeated scores force ties
            keep_ratio = float(rng.uniform(0.05, 1.0))
            got = audio_intra_prune(scores, keep_ratio)
            k = round_half_away(keep_ratio * n)
            expected = set(sorted(range(n), key=lambda i: (-scores[i], i))[:k])
            assert set(np.flatnonzero(got)) == expected

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            audio_intra_prune([], 0.5)
        with pytest.raises(InvalidInput):
            audio_intra_prune([1.0], 0.0)


class TestVideoTtm:
    def test_single_window_retention(self):
        # T = 10, prune_rate 0.8: 24 of 30 non-anchor tokens pruned -> 16/40.
        rng = np.random.default_rng(1)
        keep = video_ttm(rng.normal(size=(4, 10, 6)), 0.8)
        assert np.count_nonzero(keep) == 16
        assert keep[:10].all()

    def test_zero_prune_rate_is_identity(self):
        rng = np.random.default_rng(2)
        assert video_ttm(rng.normal(size=(8, 3, 4)), 0.0).all()

    def test_exact_copies_tie_break(self):
        # Frames 2-4 copy frame 1: all similarities are 1; the 12 highest
        # (frame, token) indices are pruned, leaving (1,0), (1,1), (1,2).
        frame = np.arange(10.0).reshape(5, 2) + 1.0
        keep = video_ttm(np.stack([frame] * 4), 0.8)
        assert kept_pairs(keep, 5) == {(0, t) for t in range(5)} | {(1, 0), (1, 1), (1, 2)}

    def test_partial_trailing_window(self):
        # 6 frames: full window of 4, then a 2-frame leftover with the same rule.
        rng = np.random.default_rng(3)
        keep = video_ttm(rng.normal(size=(6, 4, 5)), 0.5)
        # window 1: anchors 4 + (12 - round(6)) = 10; window 2: 4 + (4 - 2) = 6
        assert np.count_nonzero(keep) == 16
        assert keep[16:20].all()

    def test_zero_vector_scores_zero_similarity(self):
        anchor = np.ones((2, 3))
        near_copy = np.ones((2, 3)) * 2.0
        keep = video_ttm(np.stack([anchor, np.zeros((2, 3)), near_copy, near_copy]), 0.5)
        # zero vectors (similarity 0) outlast exact-direction copies (similarity 1)
        assert {(1, 0), (1, 1)} <= kept_pairs(keep, 2)

    def test_rejects_empty_grid(self):
        with pytest.raises(InvalidInput):
            video_ttm(np.zeros((0, 2, 2)), 0.5)
        with pytest.raises(InvalidInput):
            video_ttm(np.zeros((4, 2)), 0.5)
        rng = np.random.default_rng(4)
        with pytest.raises(InvalidInput):
            video_ttm(rng.normal(size=(4, 2, 2)), 1.0)


@st.composite
def frame_arrays(draw):
    """(F, T, d) arrays with partial windows, repeated anchors and zero rows."""
    n_frames, t_per, d = draw(st.integers(1, 9)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = rng.normal(size=(n_frames, t_per, d))
    if draw(st.booleans()):
        frames = np.round(frames)  # a coarse grid: many ties, zero rows and equal rows
    slots = st.tuples(st.integers(0, n_frames - 1), st.integers(0, t_per - 1))
    for f, t in draw(st.lists(slots, max_size=6)):  # copy (or scale) the window's anchor slot
        frames[f, t] = frames[f - f % WINDOW, t] * draw(st.sampled_from([1.0, 1.0, 3.0, -1.0]))
    for f, t in draw(st.lists(slots, max_size=3)):
        frames[f, t] = 0.0
    return frames


@settings(max_examples=400, deadline=None, derandomize=True)
@given(frames=frame_arrays(), prune_rate=st.sampled_from([0.0, 0.8]) | st.floats(0.0, 0.95))
def test_video_ttm_matches_the_scalar_rule(frames, prune_rate):
    keep = video_ttm(frames, prune_rate)
    assert keep.shape == (frames.shape[0] * frames.shape[1],)
    assert kept_pairs(keep, frames.shape[1]) == scalar_video_ttm(frames, prune_rate)


def plan(saliency, audio_keep=0.7, video_prune_rate=0.8, frames_per_chunk=4):
    return IntraPlan(audio_keep, video_prune_rate, frames_per_chunk, np.asarray(saliency, dtype=float))


class TestApplyIntra:
    def test_full_size_chunk_combined_retention(self):
        seq = build_sequence(2, [ChunkSpec(288, 50)], 3, 16, 11)
        pruned, report = apply_intra(seq, plan(np.random.default_rng(0).random(50)))
        assert report.audio_retained == 35
        kept = report.audio_retained + report.video_retained
        assert kept / (report.audio_total + report.video_total) == pytest.approx(0.444, abs=0.002)
        assert np.count_nonzero(pruned.tokens.is_text) == np.count_nonzero(seq.tokens.is_text)

    def test_identity_settings(self):
        seq = build_sequence(1, [ChunkSpec(8, 4)], 1, 8, 0)
        pruned, report = apply_intra(seq, plan([0.1, 0.2, 0.3, 0.4], 1.0, 0.0))
        for column in ("id", "modality", "chunk"):
            assert np.array_equal(getattr(pruned.tokens, column), getattr(seq.tokens, column))
        assert (report.audio_retained, report.video_retained) == (report.audio_total, report.video_total)

    def test_composition_of_both_oracles(self):
        # One chunk: 10 audio (keep 7) + 40 video as one 4-frame window of
        # T=10 (keep 16) -> 23 of 50 audiovisual tokens survive.
        seq = build_sequence(0, [ChunkSpec(40, 10)], 2, 8, 3)
        saliency = [0.5, 0.1, 0.9, 0.3, 0.2, 0.7, 0.4, 0.6, 0.05, 0.8]
        pruned, report = apply_intra(seq, plan(saliency))
        assert report.audio_retained == 7
        assert report.video_retained == 16
        assert np.count_nonzero(pruned.tokens.is_audiovisual) == 23

    def test_survivor_order_is_stable(self):
        seq = build_sequence(1, [ChunkSpec(8, 6), ChunkSpec(8, 6)], 2, 8, 5)
        pruned, _ = apply_intra(seq, plan(np.random.default_rng(7).random(12), 0.5, 0.5))
        ids = pruned.tokens.id.tolist()
        assert ids == sorted(ids)

    def test_saliency_is_read_per_chunk_in_stream_order(self):
        # Chunk 0 holds the 3 lowest scores and chunk 1 the 3 highest; each
        # chunk still keeps its own top 2.
        seq = build_sequence(0, [ChunkSpec(0, 3), ChunkSpec(0, 3)], 1, 8, 2)
        pruned, _ = apply_intra(seq, plan([0.1, 0.3, 0.2, 0.9, 0.7, 0.8], 0.6))
        audio = seq.tokens.id[seq.tokens.mask(Modality.AUDIO)]
        assert pruned.tokens.id[pruned.tokens.mask(Modality.AUDIO)].tolist() == audio[[1, 2, 3, 5]].tolist()

    def test_text_tokens_never_touched(self):
        seq = build_sequence(3, [ChunkSpec(4, 4)], 2, 8, 9)
        pruned, _ = apply_intra(seq, plan([0.1, 0.4, 0.2, 0.9], 0.25, 0.5, frames_per_chunk=2))
        for modality in (Modality.SYSTEM_TEXT, Modality.QUERY_TEXT):
            before = seq.tokens.id[seq.tokens.mask(modality)]
            assert np.array_equal(pruned.tokens.id[pruned.tokens.mask(modality)], before)

    def test_mismatched_shapes_rejected(self):
        seq = build_sequence(0, [ChunkSpec(4, 2)], 1, 8, 0)
        with pytest.raises(InvalidInput, match="saliency"):
            apply_intra(seq, plan([0.1], frames_per_chunk=2))  # wrong score length
        with pytest.raises(InvalidInput, match="do not split into 3 frames"):
            apply_intra(seq, plan([0.1, 0.2], frames_per_chunk=3))
        with pytest.raises(InvalidInput, match="do not split into 0 frames"):
            apply_intra(seq, plan([0.1, 0.2], frames_per_chunk=0))

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_saliency_must_be_finite_and_non_negative(self, bad):
        seq = build_sequence(0, [ChunkSpec(4, 2)], 1, 8, 0)
        with pytest.raises(InvalidInput, match="finite and non-negative"):
            apply_intra(seq, plan([0.3, bad], frames_per_chunk=2))
