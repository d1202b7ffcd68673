"""Modality-specific pruning applied to the token table before any decoder layer runs.

Each rule returns a boolean keep mask over the rows it is given. Audio keeps
the top-k tokens by encoder saliency. Video runs temporal token merging
(TTM) style pruning: within every window of ``WINDOW`` consecutive frames
the first frame is kept whole and tokens of the remaining frames are pruned
in order of cosine similarity to their spatial counterpart in the window's
first frame. ``apply_intra`` runs both per chunk on one keep mask over the
sequence's rows; text tokens are never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .numerics import Rng, derive_seed
from .sequence import InterleavedSequence, Modality

WINDOW = 4  # frames per TTM window


def round_half_away(x: float) -> int:
    """round() with halves away from zero, for cross-language determinism."""
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


@dataclass(frozen=True)
class IntraReport:
    """Retention accounting of one intra-pruning pass."""

    audio_total: int
    audio_retained: int
    video_total: int
    video_retained: int


@dataclass(frozen=True)
class IntraPlan:
    """Intra-pruning settings plus one saliency score per audio token, in stream order."""

    audio_keep: float
    video_prune_rate: float
    frames_per_chunk: int
    saliency: np.ndarray


def make_intra_plan(
    seq: InterleavedSequence,
    audio_keep: float,
    video_prune_rate: float,
    frames_per_chunk: int,
    seed: int,
) -> IntraPlan:
    """Synthesize intra-pruning inputs for a sequence.

    Audio saliency is seeded-uniform (the real audio encoder is out of
    scope); video frames are the sequence's own video embeddings.
    """
    saliency = Rng(derive_seed(seed, 0x1A7D10)).uniforms(seq.tokens.count(Modality.AUDIO))
    return IntraPlan(audio_keep, video_prune_rate, frames_per_chunk, saliency)


def audio_intra_prune(scores, keep_ratio: float) -> np.ndarray:
    """Keep mask of the round(keep_ratio * n) highest saliency scores.

    Score ties retain the lower index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise InvalidInput("cannot prune an empty score list")
    if not (0.0 < keep_ratio <= 1.0):
        raise InvalidInput("keep_ratio must lie in (0, 1]")
    keep = np.zeros(scores.size, dtype=bool)
    order = np.lexsort((np.arange(scores.size), -scores))
    keep[order[: round_half_away(keep_ratio * scores.size)]] = True
    return keep


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Row-wise dot products as a batched (1, d) @ (d, 1) matmul, which rounds
    # exactly as a 1-D ``a @ b`` and ``np.linalg.norm`` (the scalar cosine rule).
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def video_ttm(frames, prune_rate: float) -> np.ndarray:
    """Frame-major keep mask of an (F, T, d) frame array after windowed similarity pruning.

    Per window the first frame survives whole; each remaining token is scored
    by cosine similarity to the same spatial slot of the window's first frame
    (zero vectors score 0, equal vectors 1), and the round(prune_rate *
    candidates) most similar are dropped, ties dropping the higher (frame,
    token) index first. A trailing partial window follows the same rule over
    its leftover frames.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[0] == 0:
        raise InvalidInput("frames must be a non-empty (F, T, d) array")
    if not (0.0 <= prune_rate < 1.0):
        raise InvalidInput("prune_rate must lie in [0, 1)")

    n_frames, t_per, _ = frames.shape
    norms = np.sqrt(_dots(frames, frames))
    keep = np.ones(n_frames * t_per, dtype=bool)
    for start in range(0, n_frames, WINDOW):
        rest, anchor = frames[start + 1 : start + WINDOW], frames[start]
        rest_norms, anchor_norms = norms[start + 1 : start + WINDOW], norms[start]
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = np.fmin(1.0, np.fmax(-1.0, _dots(rest, anchor) / (rest_norms * anchor_norms)))
        sims[(rest == anchor).all(axis=2)] = 1.0
        sims[(rest_norms == 0.0) | (anchor_norms == 0.0)] = 0.0
        # Flat candidate index is frame-major, so descending index is the (-f, -t) tie-break.
        order = np.lexsort((-np.arange(sims.size), -sims.ravel()))
        keep[(start + 1) * t_per + order[: round_half_away(prune_rate * sims.size)]] = False
    return keep


def apply_intra(seq: InterleavedSequence, plan: IntraPlan) -> tuple[InterleavedSequence, IntraReport]:
    """Prune each chunk's audio and video rows of ``seq``; text is untouched.

    Audio rows keep by ``plan.saliency``; each chunk's video rows, in stream
    order, are its ``plan.frames_per_chunk`` frames. Stream order and all
    surviving token metadata are preserved.
    """
    tokens = seq.tokens
    audio, video = tokens.mask(Modality.AUDIO), tokens.mask(Modality.VIDEO)
    saliency = np.asarray(plan.saliency, dtype=np.float64)
    n_audio = int(np.count_nonzero(audio))
    if saliency.shape != (n_audio,):
        raise InvalidInput(f"need one saliency score per audio token, {n_audio}; got {saliency.shape}")
    if not np.all(np.isfinite(saliency) & (saliency >= 0.0)):
        raise InvalidInput("saliency scores must be finite and non-negative")

    keep = tokens.is_text.copy()
    for c in range(seq.max_chunk_index + 1):
        in_chunk = tokens.chunk == c
        rows = np.flatnonzero(in_chunk & audio)
        if rows.size:
            keep[rows] = audio_intra_prune(saliency[in_chunk[audio]], plan.audio_keep)
        rows = np.flatnonzero(in_chunk & video)
        if rows.size:
            n_frames = plan.frames_per_chunk
            if n_frames < 1 or rows.size % n_frames:
                raise InvalidInput(f"chunk {c}: {rows.size} video tokens do not split into {n_frames} frames")
            frames = seq.embeddings[rows].reshape(n_frames, -1, seq.d)
            keep[rows] = video_ttm(frames, plan.video_prune_rate)

    report = IntraReport(
        audio_total=n_audio,
        audio_retained=int(np.count_nonzero(keep & audio)),
        video_total=int(np.count_nonzero(video)),
        video_retained=int(np.count_nonzero(keep & video)),
    )
    return seq.subsequence(keep), report
