import numpy as np
import pytest

from avprune import (
    AudioSaliency,
    ChunkSpec,
    FrameGrid,
    InvalidInput,
    Modality,
    apply_intra,
    audio_intra_prune,
    build_sequence,
    grid_from_embeddings,
    round_half_away,
    video_ttm,
)


def test_round_half_away():
    assert round_half_away(2.5) == 3
    assert round_half_away(3.5) == 4
    assert round_half_away(-2.5) == -3
    assert round_half_away(2.4) == 2
    assert round_half_away(0.0) == 0


class TestAudioPrune:
    def test_sorted_take_oracle(self):
        scores = AudioSaliency(scores=(0.5, 0.1, 0.9, 0.3, 0.2, 0.7, 0.4, 0.6, 0.05, 0.8))
        assert audio_intra_prune(scores, 0.7) == {0, 2, 3, 5, 6, 7, 9}

    def test_keep_everything(self):
        scores = AudioSaliency(scores=(0.2, 0.4, 0.1))
        assert audio_intra_prune(scores, 1.0) == {0, 1, 2}

    def test_tie_break_keeps_lower_index(self):
        scores = AudioSaliency(scores=(0.5, 0.5, 0.5, 0.5))
        assert audio_intra_prune(scores, 0.5) == {0, 1}

    def test_random_instances_match_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            scores = tuple(float(s) for s in rng.random(n))
            keep_ratio = float(rng.uniform(0.05, 1.0))
            got = audio_intra_prune(AudioSaliency(scores=scores), keep_ratio)
            k = round_half_away(keep_ratio * n)
            expected = set(sorted(range(n), key=lambda i: (-scores[i], i))[:k])
            assert got == expected

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            audio_intra_prune(AudioSaliency(scores=()), 0.5)
        with pytest.raises(InvalidInput):
            audio_intra_prune(AudioSaliency(scores=(1.0,)), 0.0)
        with pytest.raises(InvalidInput):
            AudioSaliency(scores=(-0.1,))


def _grid_from(rows):
    return FrameGrid(frames=tuple(np.asarray(f, dtype=float) for f in rows))


class TestVideoTtm:
    def test_single_window_retention(self):
        # T = 10, prune_rate 0.8: 24 of 30 non-anchor tokens pruned -> 16/40.
        rng = np.random.default_rng(1)
        grid = _grid_from(rng.normal(size=(4, 10, 6)))
        retained = video_ttm(grid, 0.8)
        assert len(retained) == 16
        assert {(0, t) for t in range(10)} <= retained

    def test_zero_prune_rate_is_identity(self):
        rng = np.random.default_rng(2)
        grid = _grid_from(rng.normal(size=(8, 3, 4)))
        assert video_ttm(grid, 0.0) == {(f, t) for f in range(8) for t in range(3)}

    def test_exact_copies_tie_break(self):
        # Frames 2-4 copy frame 1: all similarities are 1; the 12 highest
        # (frame, token) indices are pruned, leaving (1,0), (1,1), (1,2).
        frame = np.arange(10.0).reshape(5, 2) + 1.0
        grid = _grid_from([frame, frame.copy(), frame.copy(), frame.copy()])
        retained = video_ttm(grid, 0.8)
        expected = {(0, t) for t in range(5)} | {(1, 0), (1, 1), (1, 2)}
        assert retained == expected

    def test_partial_trailing_window(self):
        # 6 frames: full window of 4, then a 2-frame leftover with the same rule.
        rng = np.random.default_rng(3)
        grid = _grid_from(rng.normal(size=(6, 4, 5)))
        retained = video_ttm(grid, 0.5)
        # window 1: anchors 4 + (12 - round(6)) = 10; window 2: 4 + (4 - 2) = 6
        assert len(retained) == 16
        assert {(4, t) for t in range(4)} <= retained

    def test_zero_vector_scores_zero_similarity(self):
        anchor = np.ones((2, 3))
        zero_frame = np.zeros((2, 3))
        near_copy = np.ones((2, 3)) * 2.0
        grid = _grid_from([anchor, zero_frame, near_copy, near_copy])
        retained = video_ttm(grid, 0.5)
        # zero vectors (similarity 0) outlast exact-direction copies (similarity 1)
        assert (1, 0) in retained and (1, 1) in retained

    def test_rejects_empty_grid(self):
        with pytest.raises(InvalidInput):
            video_ttm(FrameGrid(frames=()), 0.5)
        rng = np.random.default_rng(4)
        with pytest.raises(InvalidInput):
            video_ttm(_grid_from(rng.normal(size=(4, 2, 2))), 1.0)


class TestApplyIntra:
    def test_full_size_chunk_combined_retention(self):
        chunks = [ChunkSpec(0, 288, 50)]
        seq = build_sequence(2, chunks, 3, 16, 11)
        video_rows = seq.embeddings[seq.tokens.mask(Modality.VIDEO)]
        grids = [grid_from_embeddings(video_rows, frames=4)]
        rng = np.random.default_rng(0)
        scores = [AudioSaliency(scores=tuple(float(s) for s in rng.random(50)))]
        pruned, report = apply_intra(seq, 0.7, 0.8, scores, grids)
        assert report.audio_retained == 35
        assert report.combined_retention == pytest.approx(0.444, abs=0.002)
        assert pruned.text_count == seq.text_count

    def test_identity_settings(self):
        seq = build_sequence(1, [ChunkSpec(0, 8, 4)], 1, 8, 0)
        grids = [grid_from_embeddings(seq.embeddings[seq.tokens.mask(Modality.VIDEO)], frames=4)]
        scores = [AudioSaliency(scores=(0.1, 0.2, 0.3, 0.4))]
        pruned, report = apply_intra(seq, 1.0, 0.0, scores, grids)
        for column in ("id", "modality", "chunk", "position"):
            assert np.array_equal(getattr(pruned.tokens, column), getattr(seq.tokens, column))
        assert report.combined_retention == 1.0

    def test_composition_of_both_oracles(self):
        # One chunk: 10 audio (keep 7) + 40 video as one 4-frame window of
        # T=10 (keep 16) -> 23 of 50 audiovisual tokens survive.
        seq = build_sequence(0, [ChunkSpec(0, 40, 10)], 2, 8, 3)
        video_rows = seq.embeddings[seq.tokens.mask(Modality.VIDEO)]
        grids = [grid_from_embeddings(video_rows, frames=4)]
        scores = [AudioSaliency(scores=(0.5, 0.1, 0.9, 0.3, 0.2, 0.7, 0.4, 0.6, 0.05, 0.8))]
        pruned, report = apply_intra(seq, 0.7, 0.8, scores, grids)
        assert report.audio_retained == 7
        assert report.video_retained == 16
        assert pruned.audiovisual_count == 23

    def test_survivor_order_is_stable(self):
        seq = build_sequence(1, [ChunkSpec(0, 8, 6), ChunkSpec(1, 8, 6)], 2, 8, 5)
        rng = np.random.default_rng(7)
        grids, scores = [], []
        for c in range(2):
            vids = seq.tokens.mask(Modality.VIDEO) & (seq.tokens.chunk == c)
            grids.append(grid_from_embeddings(seq.embeddings[vids], frames=4))
            scores.append(AudioSaliency(scores=tuple(float(s) for s in rng.random(6))))
        pruned, _ = apply_intra(seq, 0.5, 0.5, scores, grids)
        ids = pruned.tokens.id.tolist()
        assert ids == sorted(ids)
        positions = pruned.tokens.position.tolist()
        assert positions == sorted(positions)

    def test_text_tokens_never_touched(self):
        seq = build_sequence(3, [ChunkSpec(0, 4, 4)], 2, 8, 9)
        grids = [grid_from_embeddings(seq.embeddings[seq.tokens.mask(Modality.VIDEO)], frames=2)]
        scores = [AudioSaliency(scores=(0.1, 0.4, 0.2, 0.9))]
        pruned, _ = apply_intra(seq, 0.25, 0.5, scores, grids)
        for modality in (Modality.SYSTEM_TEXT, Modality.QUERY_TEXT):
            before = seq.tokens.id[seq.tokens.mask(modality)]
            assert np.array_equal(pruned.tokens.id[pruned.tokens.mask(modality)], before)

    def test_mismatched_shapes_rejected(self):
        seq = build_sequence(0, [ChunkSpec(0, 4, 2)], 1, 8, 0)
        good_grid = grid_from_embeddings(seq.embeddings[:4], frames=2)
        with pytest.raises(InvalidInput):
            apply_intra(seq, 0.5, 0.5, [AudioSaliency(scores=(0.1,))], [good_grid])  # wrong score length
        with pytest.raises(InvalidInput):
            apply_intra(seq, 0.5, 0.5, [AudioSaliency(scores=(0.1, 0.2))], [None])  # missing grid
        with pytest.raises(InvalidInput):
            apply_intra(seq, 0.5, 0.5, [], [])  # missing chunks
