
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avprune import (
    ChunkSpec,
    DegenerateInput,
    InterleavedSequence,
    InvalidInput,
    Modality,
    Rng,
    TokenTable,
    apply_intra,
    build_sequence,
    make_intra_plan,
    synth_embeddings,
)
from avprune.cli import _build_intra_plan
from avprune.config import ExperimentConfig
from avprune.sequence import _TOKEN_LINE, MODALITIES


def reference_records(tokens: TokenTable) -> list[dict]:
    """The tokens.jsonl rows as plain dicts, one per token; text chunks read None, an id is its position."""
    return [
        {
            "id": i,
            "modality": MODALITIES[m].value,
            "chunk_index": None if c < 0 else c,
            "original_position": i,
        }
        for i, m, c in zip(tokens.id.tolist(), tokens.modality.tolist(), tokens.chunk.tolist())
    ]


def reference_jsonl(tokens: TokenTable) -> str:
    """``TokenTable.jsonl`` as first written: one ``json.dumps(row, sort_keys=True)`` per token."""
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in reference_records(tokens))


def reference_synth_embeddings(tokens, d, subspace_dim, noise_scale, seed):
    """``synth_embeddings`` as first written: one row at a time over one bulk draw."""
    k = subspace_dim
    text_width = min(k, d - 2 * k)
    text = (2 * k, 2 * k + text_width) if text_width else (0, d)
    blocks = {Modality.VIDEO: (0, k), Modality.AUDIO: (k, 2 * k), Modality.SYSTEM_TEXT: text, Modality.QUERY_TEXT: text}
    spans = [blocks[MODALITIES[code]] for code in tokens.modality.tolist()]
    draws = Rng(seed).gaussians(sum(hi - lo + d for lo, hi in spans))
    rows = np.zeros((len(tokens), d), dtype=np.float64)
    at = 0
    for i, (lo, hi) in enumerate(spans):
        mid = at + hi - lo
        rows[i, lo:hi] = 1.0 + draws[at:mid]
        rows[i] += noise_scale * draws[mid : mid + d]
        at = mid + d
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateInput("zero-norm embedding row; increase noise_scale")
    return rows / norms[:, None]


def test_minimal_ordering():
    seq = build_sequence(0, [ChunkSpec(2, 1)], 1, 4, 7)
    assert seq.tokens.modality.tolist() == [
        Modality.VIDEO.code,
        Modality.VIDEO.code,
        Modality.AUDIO.code,
        Modality.QUERY_TEXT.code,
    ]
    assert [json.loads(row)["chunk_index"] for row in seq.tokens.jsonl().splitlines()] == [0, 0, 0, None]
    assert seq.tokens.id.tolist() == [0, 1, 2, 3]


def test_full_size_chunks():
    chunks = [ChunkSpec(288, 50)] * 2
    seq = build_sequence(3, chunks, 5, 8, 1)
    assert seq.n == 684
    assert np.count_nonzero(seq.tokens.is_audiovisual) == 676
    assert np.count_nonzero(seq.tokens.is_text) == 8


def test_deterministic_embeddings():
    chunks = [ChunkSpec(4, 2)]
    a = build_sequence(1, chunks, 2, 16, 42)
    b = build_sequence(1, chunks, 2, 16, 42)
    assert a.embeddings.tobytes() == b.embeddings.tobytes()
    c = build_sequence(1, chunks, 2, 16, 43)
    assert a.embeddings.tobytes() != c.embeddings.tobytes()


def test_pattern_reconstruction():
    # Filtering by modality and re-concatenating reproduces the stream.
    chunks = [ChunkSpec(3, 2), ChunkSpec(3, 2)]
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
        build_sequence(0, [ChunkSpec(1, 1)], 1, 1, 0)
    with pytest.raises(InvalidInput):
        build_sequence(0, [ChunkSpec(1, 1)], 0, 4, 0)
    with pytest.raises(InvalidInput):
        build_sequence(-1, [ChunkSpec(1, 1)], 1, 4, 0)


def test_chunk_spec_validation():
    with pytest.raises(InvalidInput):
        ChunkSpec(0, 0)
    with pytest.raises(InvalidInput):
        ChunkSpec(-1, 1)


class TestChunkIndexOf:
    def test_first_video_of_chunk_zero(self):
        seq = build_sequence(1, [ChunkSpec(2, 1)], 1, 4, 0)
        assert seq.tokens.chunk[seq.tokens.mask(Modality.VIDEO)][0] == 0

    def test_query_token_has_none(self):
        seq = build_sequence(1, [ChunkSpec(2, 1)], 1, 4, 0)
        query = seq.tokens[seq.tokens.mask(Modality.QUERY_TEXT)]
        assert query.chunk[0] == -1
        assert json.loads(query.jsonl())["chunk_index"] is None

    def test_last_audio_of_five_chunks(self):
        chunks = [ChunkSpec(2, 3)] * 5
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


class TestSynthEmbeddingsReference:
    LAYOUTS = {
        "one-chunk": (2, [ChunkSpec(3, 2)], 1),
        "no-system": (0, [ChunkSpec(1, 0), ChunkSpec(0, 2)], 3),
        "four-chunks": (4, [ChunkSpec(8, 2)] * 4, 5),
        "no-tokens": None,
    }
    # (d, subspace_dim): text in its own block, text narrower than k, and 2k == d (text spans all dims).
    WIDTHS = [(16, 4), (16, 7), (8, 4), (2, 1), (33, 5)]

    def _tokens(self, layout):
        if self.LAYOUTS[layout] is None:
            return TokenTable.from_runs([])
        sys_len, chunks, query_len = self.LAYOUTS[layout]
        return build_sequence(sys_len, chunks, query_len, 4, 0).tokens

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("d,subspace_dim", WIDTHS)
    @pytest.mark.parametrize("noise_scale", [0.0, 0.3, 2.5])
    def test_matches_the_row_loop_byte_for_byte(self, layout, d, subspace_dim, noise_scale):
        tokens = self._tokens(layout)
        for seed in (0, 11):
            got = synth_embeddings(tokens, d, subspace_dim, noise_scale, seed)
            want = reference_synth_embeddings(tokens, d, subspace_dim, noise_scale, seed)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_one_gaussians_call_with_the_row_loop_count(self, layout, monkeypatch):
        tokens = self._tokens(layout)
        calls = []
        real = Rng.gaussians
        monkeypatch.setattr(Rng, "gaussians", lambda rng, count: calls.append(count) or real(rng, count))
        synth_embeddings(tokens, 16, 7, 0.3, 0)  # blocks 7 wide, text 2 wide
        assert len(calls) == 1
        reference_synth_embeddings(tokens, 16, 7, 0.3, 0)
        assert calls == [calls[0], calls[0]]

    @pytest.mark.parametrize("d,subspace_dim", [(16, 4), (8, 4)])
    def test_zero_norm_row_without_noise_raises(self, d, subspace_dim, monkeypatch):
        # Block draws of exactly -1 cancel the mean offset; with no noise the row is zero.
        tokens = self._tokens("one-chunk")
        monkeypatch.setattr(Rng, "gaussians", lambda rng, count: np.full(count, -1.0))
        for synth in (synth_embeddings, reference_synth_embeddings):
            with pytest.raises(DegenerateInput, match="zero-norm"):
                synth(tokens, d, subspace_dim, 0.0, 0)


ROW_IDS = st.integers(0, 2**63 - 1)


@st.composite
def token_tables(draw):
    """Tables with text rows (chunk -1), audiovisual rows and ids up to 2**63 - 1; no layout rule."""
    n = draw(st.integers(0, 12))
    modality = draw(st.lists(st.integers(0, len(MODALITIES) - 1), min_size=n, max_size=n))
    chunk = [-1 if MODALITIES[m].is_text else draw(st.integers(0, 2**63 - 1) | st.integers(0, 3)) for m in modality]
    ids = draw(st.lists(ROW_IDS | st.integers(0, 20), min_size=n, max_size=n))
    return TokenTable(id=ids, modality=modality, chunk=chunk)


@st.composite
def intra_pruned_tokens(draw):
    frames = draw(st.integers(1, 3))
    chunks = [
        ChunkSpec(frames * draw(st.integers(0, 4)), draw(st.integers(1, 6))) for _ in range(draw(st.integers(1, 3)))
    ]
    seq = build_sequence(draw(st.integers(0, 3)), chunks, draw(st.integers(1, 3)), 8, draw(st.integers(0, 9)))
    plan = make_intra_plan(
        seq,
        audio_keep=draw(st.floats(0.05, 1.0)),
        video_prune_rate=draw(st.floats(0.0, 0.95)),
        frames_per_chunk=frames,
        seed=draw(st.integers(0, 9)),
    )
    return apply_intra(seq, plan)[0].tokens


class TestTokensJsonl:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tokens=token_tables() | intra_pruned_tokens())
    def test_matches_json_dumps_byte_for_byte(self, tokens):
        assert tokens.jsonl() == reference_jsonl(tokens)

    def test_row_bytes(self):
        tokens = TokenTable(
            id=[2**63 - 1, 4], modality=[Modality.VIDEO.code, Modality.QUERY_TEXT.code], chunk=[3, -1]
        )
        assert tokens.jsonl() == (
            '{"chunk_index": 3, "id": 9223372036854775807, "modality": "video", '
            '"original_position": 9223372036854775807}\n'
            '{"chunk_index": null, "id": 4, "modality": "query_text", "original_position": 4}\n'
        )


    def test_every_written_token_line_takes_the_fast_path(self):
        # A line _TOKEN_LINE misses still reads, through json.loads, so only
        # this catches the writer's form drifting away from the fast path.
        tables = [ExperimentConfig.resolve(overrides=o).build_sequence().tokens for o in ({}, {"sequence.chunks": 4})]
        cfg = ExperimentConfig.resolve(overrides={"intra.enabled": True})
        seq = cfg.build_sequence()
        tables.append(apply_intra(seq, _build_intra_plan(cfg, seq))[0].tokens)
        assert len(tables[-1]) < len(seq.tokens)
        video, query = Modality.VIDEO.code, Modality.QUERY_TEXT.code
        tables.append(TokenTable(id=[2**63 - 1, 0], modality=[video, query], chunk=[2**63 - 1, -1]))
        for tokens in tables:
            lines = tokens.jsonl().splitlines(keepends=True)
            assert len(lines) == len(tokens)
            assert [line for line in lines if not _TOKEN_LINE.fullmatch(line)] == []


class TestInterleavedSequence:
    def test_total_count_identity(self):
        chunks = [ChunkSpec(5, 2), ChunkSpec(1, 4)]
        seq = build_sequence(3, chunks, 2, 8, 0)
        assert seq.n == 3 + (5 + 2) + (1 + 4) + 2

    def test_subsequence_preserves_meta_and_embeddings(self):
        seq = build_sequence(1, [ChunkSpec(3, 2)], 1, 8, 0)
        keep = np.isin(np.arange(seq.n), [0, 2, 4, 6])
        sub = seq.subsequence(keep)
        assert sub.tokens.id.tolist() == [0, 2, 4, 6]
        for column in ("id", "modality", "chunk"):
            assert np.array_equal(getattr(sub.tokens, column), getattr(seq.tokens, column)[keep])
        assert np.array_equal(sub.embeddings, seq.embeddings[keep])

    @pytest.mark.parametrize(
        "keep", [np.array([0, 2, 4, 6]), np.ones(6, dtype=bool), np.ones(8, dtype=bool)],
        ids=["ids", "short-mask", "long-mask"],
    )
    def test_subsequence_takes_only_a_mask_over_the_tokens(self, keep):
        seq = build_sequence(1, [ChunkSpec(3, 2)], 1, 8, 0)
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
        seq = build_sequence(0, [ChunkSpec(1, 1)], 1, 4, 0)
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
        seq = build_sequence(1, [ChunkSpec(3, 2)], 2, 8, 0)
        av = seq.tokens[seq.tokens.is_audiovisual]
        assert isinstance(av, TokenTable)
        assert av.id.tolist() == [1, 2, 3, 4, 5]
        assert av.count(Modality.AUDIO) == 2 and av.count(Modality.VIDEO) == 3
        with pytest.raises(ValueError):
            av.id[0] = 7  # columns are read-only

    @pytest.mark.parametrize(
        "rows", [slice(1, 4), np.array([True, False] * 3 + [True]), np.array([4, 0, 2])],
        ids=["slice", "mask", "index-array"],
    )
    def test_row_slice_columns_are_read_only_and_typed(self, rows):
        seq = build_sequence(1, [ChunkSpec(3, 2)], 1, 8, 0)
        part = seq.tokens[rows]
        for name in ("id", "modality", "chunk"):
            col = getattr(part, name)
            assert col.dtype == (np.int8 if name == "modality" else np.int64) and col.ndim == 1
            assert np.array_equal(col, getattr(seq.tokens, name)[rows])
            with pytest.raises(ValueError):
                col[0] = 1

    @pytest.mark.parametrize(
        "rows", [2, np.int64(2), np.array([[0, 1]]), (slice(None), None), None],
        ids=["int", "numpy-int", "2-D-array", "new-axis", "none"],
    )
    def test_non_row_selection_is_refused(self, rows):
        seq = build_sequence(1, [ChunkSpec(3, 2)], 1, 8, 0)
        with pytest.raises(InvalidInput, match="1-D row selection"):
            seq.tokens[rows]

    def test_records_are_plain_python_values(self):
        seq = build_sequence(1, [ChunkSpec(1, 1)], 1, 4, 0)
        records = [json.loads(row) for row in seq.tokens.jsonl().splitlines()]
        assert records[1] == {"id": 1, "modality": "video", "chunk_index": 0, "original_position": 1}
        assert all(type(r["id"]) is int and type(r["original_position"]) is int for r in records)
        assert records[0]["chunk_index"] is None and type(records[1]["chunk_index"]) is int

    def test_columns_are_id_modality_chunk(self):
        assert [f.name for f in dataclasses.fields(TokenTable)] == ["id", "modality", "chunk"]

    @pytest.mark.parametrize(
        "ids", [[0, 2, 1], [2, 1, 0], [0, 0, 2], [1, 1, 1]], ids=["unsorted", "descending", "duplicate", "all-equal"]
    )
    def test_layout_refuses_ids_that_do_not_rise(self, ids):
        # An id is the token's original stream position: one rule refuses repeats and disorder alike.
        runs = TokenTable.from_runs([(Modality.VIDEO, 2, 0), (Modality.QUERY_TEXT, 1, None)])
        tokens = TokenTable(id=ids, modality=runs.modality, chunk=runs.chunk)
        with pytest.raises(InvalidInput, match="^token ids must be strictly increasing$"):
            self._seq(tokens)

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
