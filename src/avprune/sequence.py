"""Chunked audiovisual-plus-text token streams with synthetic embeddings.

A sequence is laid out as [system text, (video block, audio block) per chunk,
query text] with dense ids 0..n-1 in stream order. A token's id is its
original stream position and never changes, so later pruning stages can
always refer back to the unpruned layout.
Embeddings are synthetic: each modality is a Gaussian cloud concentrated in
its own subspace, standing in for real encoder outputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidInput
from .numerics import Rng


class Modality(enum.Enum):
    SYSTEM_TEXT = "system_text"
    VIDEO = "video"
    AUDIO = "audio"
    QUERY_TEXT = "query_text"

    @property
    def is_text(self) -> bool:
        return self in (Modality.SYSTEM_TEXT, Modality.QUERY_TEXT)

    @property
    def is_audiovisual(self) -> bool:
        return self in (Modality.VIDEO, Modality.AUDIO)

    @property
    def code(self) -> int:
        """This modality's value in a ``TokenTable.modality`` column."""
        return MODALITIES.index(self)


MODALITIES = tuple(Modality)
_IS_TEXT = np.array([m.is_text for m in MODALITIES])
# Stream phase per modality code: system text 0, audiovisual 1, query text 2.
_PHASE = np.array([0 if m is Modality.SYSTEM_TEXT else 2 if m.is_text else 1 for m in MODALITIES])
_COLUMNS = ("id", "modality", "chunk")
# A tokens.jsonl row per modality code, as a str.format template of (chunk, id).
_JSONL_ROWS = [
    '{{"chunk_index": %s, "id": {1}, "modality": "%s", "original_position": {1}}}\n'
    % ("null" if m.is_text else "{0}", m.value) for m in MODALITIES
]


@dataclass(frozen=True)
class TokenTable:
    """The token set as one struct of arrays: row i is the i-th token in stream order.

    ``id`` is the original stream position, which survives pruning
    unchanged, ``modality`` holds ``Modality.code`` values, and ``chunk`` is
    -1 for text tokens. A row slice (``table[rows]``) is again a table, so the
    survivors of a layer and the rows and columns of an attention map share
    this one type. Columns are read-only.
    """

    id: np.ndarray
    modality: np.ndarray
    chunk: np.ndarray

    def __post_init__(self):
        for name in _COLUMNS:
            col = np.array(getattr(self, name), dtype=np.int8 if name == "modality" else np.int64)
            col.setflags(write=False)
            object.__setattr__(self, name, col)
            if col.ndim != 1 or col.shape != self.id.shape:
                raise InvalidInput("token columns must be 1-D and of equal length")
        if np.any(self.id < 0):
            raise InvalidInput("token ids must be non-negative")
        if np.any((self.modality < 0) | (self.modality >= len(MODALITIES))):
            raise InvalidInput("unknown modality code")
        text = self.is_text
        bad = np.flatnonzero(np.where(text, self.chunk != -1, self.chunk < 0))
        if bad.size:
            i = bad[0]
            rule = "text tokens carry no" if text[i] else "audiovisual tokens need a"
            raise InvalidInput(f"token {self.id[i]}: {rule} chunk index")

    @staticmethod
    def from_runs(runs) -> "TokenTable":
        """Table of consecutive (modality, count, chunk) runs; chunk is None for text.

        Ids are dense, 0..n-1 in stream order.
        """
        runs = list(runs)
        counts = [count for _, count, _ in runs]
        return TokenTable(
            id=np.arange(sum(counts)),
            modality=np.repeat([m.code for m, _, _ in runs], counts),
            chunk=np.repeat([-1 if c is None else c for _, _, c in runs], counts),
        )

    def __len__(self) -> int:
        return self.id.size

    def __getitem__(self, rows) -> "TokenTable":
        """Row slice by slice, boolean mask or index array; a row subset of a valid table needs no checks."""
        table = object.__new__(TokenTable)
        for name in _COLUMNS:
            col = getattr(self, name)[rows]
            if col.ndim != 1:
                raise InvalidInput("a token table takes a 1-D row selection")
            col.setflags(write=False)
            object.__setattr__(table, name, col)
        return table

    def mask(self, modality: Modality) -> np.ndarray:
        return self.modality == modality.code

    def count(self, modality: Modality) -> int:
        return int(np.count_nonzero(self.mask(modality)))

    @property
    def is_text(self) -> np.ndarray:
        return _IS_TEXT[self.modality]

    @property
    def is_audiovisual(self) -> np.ndarray:
        return ~self.is_text

    def jsonl(self) -> str:
        """``tokens.jsonl`` rows: a ``json.dumps(row, sort_keys=True)`` line per token, text chunk null."""
        rows = [_JSONL_ROWS[m] for m in self.modality.tolist()]
        return "".join(map(str.format, rows, self.chunk.tolist(), self.id.tolist()))


@dataclass(frozen=True)
class ChunkSpec:
    """Per-chunk token counts for one fixed temporal window."""

    n_v: int
    n_a: int

    def __post_init__(self):
        if not (self.n_v >= 0):
            raise InvalidInput("n_v: must be >= 0")
        if not (self.n_a >= 0):
            raise InvalidInput("n_a: must be >= 0")
        if not (self.n_v + self.n_a >= 1):
            raise InvalidInput("n_v: a chunk must hold at least one token")


@dataclass(frozen=True)
class InterleavedSequence:
    """Token table plus an aligned n x d embedding matrix.

    Immutable after construction; pruning produces a new instance via
    ``subsequence``. The stream pattern [sys, (video, audio) per chunk, query]
    is validated on every construction, also for pruned shapes.
    """

    tokens: TokenTable
    embeddings: np.ndarray

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float64)
        emb.setflags(write=False)
        object.__setattr__(self, "embeddings", emb)
        if emb.ndim != 2 or emb.shape[0] != len(self.tokens):
            raise InvalidInput("embeddings must have one row per token")
        self._check_layout()

    def _check_layout(self):
        tok = self.tokens
        if np.any(np.diff(tok.id) <= 0):
            raise InvalidInput("token ids must be strictly increasing")
        back = np.flatnonzero(np.diff(_PHASE[tok.modality]) < 0)
        if back.size:
            if tok.modality[back[0] + 1] == Modality.SYSTEM_TEXT.code:
                raise InvalidInput("system tokens must precede all others")
            raise InvalidInput("audiovisual tokens cannot follow query tokens")
        av = tok[tok.is_audiovisual]
        step = np.diff(av.chunk)
        if np.any(step < 0):
            raise InvalidInput("chunk indices must be non-decreasing")
        audio = av.mask(Modality.AUDIO)
        video_after_audio = np.flatnonzero((step == 0) & audio[:-1] & ~audio[1:])
        if video_after_audio.size:
            chunk = av.chunk[video_after_audio[0]]
            raise InvalidInput(f"chunk {chunk}: video tokens must precede audio tokens")

    @property
    def n(self) -> int:
        return len(self.tokens)

    @property
    def d(self) -> int:
        return int(self.embeddings.shape[1])

    @property
    def text_count(self) -> int:
        return int(np.count_nonzero(self.tokens.is_text))

    @property
    def audiovisual_count(self) -> int:
        return self.n - self.text_count

    @property
    def max_chunk_index(self) -> int:
        return int(self.tokens.chunk.max(initial=0))

    def subsequence(self, keep: np.ndarray) -> "InterleavedSequence":
        """New sequence retaining the rows where the boolean mask ``keep`` is true, in original order."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (self.n,):
            raise InvalidInput(f"keep must be a boolean mask over the {self.n} tokens")
        return InterleavedSequence(tokens=self.tokens[keep], embeddings=self.embeddings[keep])


def synth_embeddings(
    tokens: TokenTable,
    d: int,
    subspace_dim: int,
    noise_scale: float,
    seed: int,
) -> np.ndarray:
    """Synthetic per-modality embeddings in disjoint subspaces.

    Video tokens occupy coordinate block [0, k), audio [k, 2k), text the
    remaining dims (full-space isotropic when 2k == d leaves no room). Each
    token is its modality's mean direction plus unit Gaussian spread within
    the block plus isotropic noise of scale ``noise_scale``, unit-normalized
    so cosine similarity is a plain dot product. The mean offset keeps
    intra-modal similarities broadly positive while cross-modal pairs sit
    near zero, matching how real encoder embeddings cluster by modality.
    """
    if subspace_dim < 1:
        raise InvalidInput("subspace_dim must be >= 1")
    if 2 * subspace_dim > d:
        raise InvalidInput(f"subspace_dim {subspace_dim} exceeds d/2 = {d / 2:g}")
    if noise_scale < 0:
        raise InvalidInput("noise_scale must be non-negative")

    k = subspace_dim
    text_width = min(k, d - 2 * k)
    # 2k == d: no disjoint room left, spread text everywhere
    text = (2 * k, 2 * k + text_width) if text_width else (0, d)
    blocks = {
        Modality.VIDEO: (0, k),
        Modality.AUDIO: (k, 2 * k),
        Modality.SYSTEM_TEXT: text,
        Modality.QUERY_TEXT: text,
    }

    # Row by row in the draw stream: the row's block draws, then its d noise draws.
    widths = np.array([hi - lo for lo, hi in (blocks[m] for m in MODALITIES)])[tokens.modality]
    starts = np.cumsum(widths + d) - (widths + d)
    draws = Rng(seed).gaussians(int(widths.sum()) + len(tokens) * d)
    rows = np.zeros((len(tokens), d), dtype=np.float64)
    for modality, (lo, hi) in blocks.items():
        sel = tokens.mask(modality)
        rows[sel, lo:hi] = 1.0 + draws[starts[sel, None] + np.arange(hi - lo)]
    noise = draws[(starts + widths)[:, None] + np.arange(d)]
    noise *= noise_scale  # in place: one (n, d) temporary, not two
    rows += noise

    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateInput("zero-norm embedding row; increase noise_scale")
    return rows / norms[:, None]


def build_sequence(sys_len: int, chunks, query_len: int, d: int, seed: int) -> InterleavedSequence:
    """Build the interleaved stream [sys, (video, audio) per chunk, query].

    Chunks are numbered 0..m-1 in list order. Deterministic given the seed;
    embeddings come from ``synth_embeddings`` with modality subspaces of
    width ``max(1, d // 8)`` and noise scale 0.3.
    """
    chunks = list(chunks)
    if not chunks:
        raise InvalidInput("need at least one chunk")
    if sys_len < 0:
        raise InvalidInput("sys_len must be non-negative")
    if query_len < 1:
        raise InvalidInput("query_len must be at least 1")
    if d < 2:
        raise InvalidInput("embedding dimension must be at least 2")

    runs = [(Modality.SYSTEM_TEXT, sys_len, None)]
    for i, spec in enumerate(chunks):
        runs += [(Modality.VIDEO, spec.n_v, i), (Modality.AUDIO, spec.n_a, i)]
    runs.append((Modality.QUERY_TEXT, query_len, None))
    tokens = TokenTable.from_runs(runs)
    emb = synth_embeddings(tokens, d, max(1, d // 8), 0.3, seed)
    return InterleavedSequence(tokens=tokens, embeddings=emb)
