
import numpy as np
import pytest

from avprune import (
    ChunkSpec,
    InterleavedSequence,
    InvalidInput,
    Modality,
    TokenTable,
    build_sequence,
    synth_embeddings,
)


def test_minimal_ordering():
    seq = build_sequence(0, [ChunkSpec(0, 2, 1)], 1, 4, 7)
    assert seq.tokens.modality.tolist() == [
        Modality.VIDEO.code,
        Modality.VIDEO.code,
        Modality.AUDIO.code,
        Modality.QUERY_TEXT.code,
    ]
    assert [r["chunk_index"] for r in seq.tokens.records()] == [0, 0, 0, None]
    assert seq.tokens.id.tolist() == [0, 1, 2, 3]


def test_full_size_chunks():
    chunks = [ChunkSpec(i, 288, 50) for i in range(2)]
    seq = build_sequence(3, chunks, 5, 8, 1)
    assert seq.n == 684
    assert seq.audiovisual_count == 676
    assert seq.text_count == 8


def test_deterministic_embeddings():
    chunks = [ChunkSpec(0, 4, 2)]
    a = build_sequence(1, chunks, 2, 16, 42)
    b = build_sequence(1, chunks, 2, 16, 42)
    assert a.embeddings.tobytes() == b.embeddings.tobytes()
    c = build_sequence(1, chunks, 2, 16, 43)
    assert a.embeddings.tobytes() != c.embeddings.tobytes()


def test_pattern_reconstruction():
    # Filtering by modality and re-concatenating reproduces the stream.
    chunks = [ChunkSpec(0, 3, 2), ChunkSpec(1, 3, 2)]
    seq = build_sequence(2, chunks, 3, 8, 0)
    tok = seq.tokens
    rebuilt = [np.flatnonzero(tok.mask(Modality.SYSTEM_TEXT))]
    for c in range(2):
        rebuilt.append(np.flatnonzero(tok.mask(Modality.VIDEO) & (tok.chunk == c)))
        rebuilt.append(np.flatnonzero(tok.mask(Modality.AUDIO) & (tok.chunk == c)))
    rebuilt.append(np.flatnonzero(tok.mask(Modality.QUERY_TEXT)))
    assert np.concatenate(rebuilt).tolist() == list(range(seq.n))
    assert seq.n == 2 + sum(c.n_v + c.n_a for c in chunks) + 3


def test_build_validation():
    with pytest.raises(InvalidInput):
        build_sequence(0, [], 1, 4, 0)
    with pytest.raises(InvalidInput):
        build_sequence(0, [ChunkSpec(0, 1, 1)], 1, 1, 0)
    with pytest.raises(InvalidInput):
        build_sequence(0, [ChunkSpec(0, 1, 1)], 0, 4, 0)
    with pytest.raises(InvalidInput):
        build_sequence(-1, [ChunkSpec(0, 1, 1)], 1, 4, 0)
    with pytest.raises(InvalidInput):
        build_sequence(0, [ChunkSpec(1, 1, 1)], 1, 4, 0)  # mis-indexed chunk


def test_chunk_spec_validation():
    with pytest.raises(InvalidInput):
        ChunkSpec(0, 0, 0)
    with pytest.raises(InvalidInput):
        ChunkSpec(-1, 1, 1)


class TestChunkIndexOf:
    def test_first_video_of_chunk_zero(self):
        seq = build_sequence(1, [ChunkSpec(0, 2, 1)], 1, 4, 0)
        assert seq.tokens.chunk[seq.tokens.mask(Modality.VIDEO)][0] == 0

    def test_query_token_has_none(self):
        seq = build_sequence(1, [ChunkSpec(0, 2, 1)], 1, 4, 0)
        query = seq.tokens[seq.tokens.mask(Modality.QUERY_TEXT)]
        assert query.chunk[0] == -1
        assert query.records()[0]["chunk_index"] is None

    def test_last_audio_of_five_chunks(self):
        chunks = [ChunkSpec(i, 2, 3) for i in range(5)]
        seq = build_sequence(0, chunks, 1, 4, 0)
        assert seq.tokens.chunk[seq.tokens.mask(Modality.AUDIO)][-1] == 4


class TestSynthEmbeddings:
    def _tokens(self, counts):
        # chunk layout irrelevant here; one run per modality
        return TokenTable.from_runs(
            (modality, count, 0 if modality.is_audiovisual else None) for modality, count in counts
        )

    def test_zero_noise_disjoint_subspaces_orthogonal(self):
        tokens = self._tokens([(Modality.VIDEO, 10), (Modality.AUDIO, 10), (Modality.QUERY_TEXT, 5)])
        emb = synth_embeddings(tokens, d=16, subspace_dim=4, noise_scale=0.0, seed=3)
        video = emb[:10]
        audio = emb[10:20]
        text = emb[20:]
        assert np.all(video @ audio.T == 0.0)
        assert np.all(video @ text.T == 0.0)
        assert np.all(audio @ text.T == 0.0)

    def test_unit_rows(self):
        tokens = self._tokens([(Modality.VIDEO, 8), (Modality.AUDIO, 8)])
        emb = synth_embeddings(tokens, d=32, subspace_dim=8, noise_scale=0.5, seed=1)
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)

    def test_default_params_cosine_separation(self):
        # 1000-token sample: cross-modal cosines stay small, intra-modal
        # mean exceeds cross-modal mean. Quantiles from the full pairwise
        # distribution (unit rows make cosine a plain dot product).
        tokens = self._tokens([(Modality.VIDEO, 450), (Modality.AUDIO, 450), (Modality.QUERY_TEXT, 100)])
        emb = synth_embeddings(tokens, d=64, subspace_dim=8, noise_scale=0.3, seed=7)
        video, audio = emb[:450], emb[450:900]
        cross = (video @ audio.T).ravel()
        intra_v = (video @ video.T)[np.triu_indices(450, k=1)]
        intra_a = (audio @ audio.T)[np.triu_indices(450, k=1)]
        intra = np.concatenate([intra_v, intra_a])
        assert np.quantile(cross, 0.95) < 0.3
        assert intra.mean() > cross.mean()

    def test_single_modality_has_no_cross_pairs(self):
        tokens = self._tokens([(Modality.AUDIO, 20)])
        emb = synth_embeddings(tokens, d=16, subspace_dim=4, noise_scale=0.1, seed=5)
        sims = (emb @ emb.T)[np.triu_indices(20, k=1)]
        assert sims.size == 190  # all pairs are intra-modal

    def test_subspace_too_wide(self):
        tokens = self._tokens([(Modality.AUDIO, 3)])
        with pytest.raises(InvalidInput):
            synth_embeddings(tokens, d=8, subspace_dim=5, noise_scale=0.1, seed=0)


class TestInterleavedSequence:
    def test_total_count_identity(self):
        chunks = [ChunkSpec(0, 5, 2), ChunkSpec(1, 1, 4)]
        seq = build_sequence(3, chunks, 2, 8, 0)
        assert seq.n == 3 + (5 + 2) + (1 + 4) + 2

    def test_subsequence_preserves_meta_and_embeddings(self):
        seq = build_sequence(1, [ChunkSpec(0, 3, 2)], 1, 8, 0)
        keep = np.isin(np.arange(seq.n), [0, 2, 4, 6])
        sub = seq.subsequence(keep)
        assert sub.tokens.id.tolist() == [0, 2, 4, 6]
        for column in ("id", "modality", "chunk", "position"):
            assert np.array_equal(getattr(sub.tokens, column), getattr(seq.tokens, column)[keep])
        assert np.array_equal(sub.embeddings, seq.embeddings[keep])

    @pytest.mark.parametrize(
        "keep", [np.array([0, 2, 4, 6]), np.ones(6, dtype=bool), np.ones(8, dtype=bool)],
        ids=["ids", "short-mask", "long-mask"],
    )
    def test_subsequence_takes_only_a_mask_over_the_tokens(self, keep):
        seq = build_sequence(1, [ChunkSpec(0, 3, 2)], 1, 8, 0)
        with pytest.raises(InvalidInput, match="boolean mask over the 7 tokens"):
            seq.subsequence(keep)

    def test_layout_rejects_audio_before_video(self):
        tokens = TokenTable.from_runs([(Modality.AUDIO, 1, 0), (Modality.VIDEO, 1, 0)])
        with pytest.raises(InvalidInput):
            InterleavedSequence(tokens=tokens, embeddings=np.zeros((2, 4)))

    def test_layout_rejects_av_after_query(self):
        tokens = TokenTable.from_runs([(Modality.QUERY_TEXT, 1, None), (Modality.VIDEO, 1, 0)])
        with pytest.raises(InvalidInput):
            InterleavedSequence(tokens=tokens, embeddings=np.zeros((2, 4)))

    def test_embeddings_are_read_only(self):
        seq = build_sequence(0, [ChunkSpec(0, 1, 1)], 1, 4, 0)
        with pytest.raises(ValueError):
            seq.embeddings[0, 0] = 5.0

    def test_token_meta_validation(self):
        with pytest.raises(InvalidInput):
            TokenTable.from_runs([(Modality.VIDEO, 1, None)])  # AV token missing chunk
        with pytest.raises(InvalidInput):
            TokenTable.from_runs([(Modality.QUERY_TEXT, 1, 3)])  # text token with chunk


class TestTokenTable:
    def _seq(self, tokens):
        return InterleavedSequence(tokens=tokens, embeddings=np.zeros((len(tokens), 2)))

    def test_row_slice_is_a_table(self):
        seq = build_sequence(1, [ChunkSpec(0, 3, 2)], 2, 8, 0)
        av = seq.tokens[seq.tokens.is_audiovisual]
        assert isinstance(av, TokenTable)
        assert av.id.tolist() == [1, 2, 3, 4, 5]
        assert av.count(Modality.AUDIO) == 2 and av.count(Modality.VIDEO) == 3
        with pytest.raises(ValueError):
            av.id[0] = 7  # columns are read-only

    def test_records_are_plain_python_values(self):
        seq = build_sequence(1, [ChunkSpec(0, 1, 1)], 1, 4, 0)
        records = seq.tokens.records()
        assert records[1] == {"id": 1, "modality": "video", "chunk_index": 0, "original_position": 1}
        assert all(type(r["id"]) is int and type(r["original_position"]) is int for r in records)
        assert records[0]["chunk_index"] is None and type(records[1]["chunk_index"]) is int

    def test_layout_rejects_duplicate_ids_and_unordered_positions(self):
        runs = TokenTable.from_runs([(Modality.VIDEO, 2, 0), (Modality.QUERY_TEXT, 1, None)])
        dup = TokenTable(id=[0, 0, 2], modality=runs.modality, chunk=runs.chunk, position=runs.position)
        with pytest.raises(InvalidInput, match="duplicate"):
            self._seq(dup)
        unordered = TokenTable(id=runs.id, modality=runs.modality, chunk=runs.chunk, position=[0, 2, 1])
        with pytest.raises(InvalidInput, match="positions"):
            self._seq(unordered)

    def test_layout_rejects_system_after_av_and_falling_chunks(self):
        late_system = TokenTable.from_runs([(Modality.VIDEO, 1, 0), (Modality.SYSTEM_TEXT, 1, None)])
        with pytest.raises(InvalidInput, match="system"):
            self._seq(late_system)
        falling = TokenTable.from_runs([(Modality.VIDEO, 1, 1), (Modality.VIDEO, 1, 0)])
        with pytest.raises(InvalidInput, match="non-decreasing"):
            self._seq(falling)

    def test_layout_accepts_chunk_without_video(self):
        tokens = TokenTable.from_runs([(Modality.VIDEO, 1, 0), (Modality.AUDIO, 1, 0), (Modality.AUDIO, 1, 1)])
        assert self._seq(tokens).max_chunk_index == 1
