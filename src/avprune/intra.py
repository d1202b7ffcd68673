"""Modality-specific pruning applied before any decoder layer runs.

Audio keeps the top-k tokens by encoder saliency. Video runs temporal token
merging style pruning: within every window of 4 consecutive frames the first
frame is kept whole and tokens of the remaining frames are pruned in order of
cosine similarity to their spatial counterpart in the window's first frame.
Text tokens are never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidInput
from .numerics import cosine
from .sequence import InterleavedSequence, Modality


def round_half_away(x: float) -> int:
    """round() with halves away from zero, for cross-language determinism."""
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


@dataclass(frozen=True)
class AudioSaliency:
    """Encoder saliency per audio token of one chunk."""

    scores: tuple[float, ...]

    def __post_init__(self):
        if any(not math.isfinite(s) or s < 0 for s in self.scores):
            raise InvalidInput("saliency scores must be finite and non-negative")


@dataclass(frozen=True)
class FrameGrid:
    """Spatial token embeddings of one chunk's frames, each frame (T, d)."""

    frames: tuple[np.ndarray, ...]
    window_size: int = 4

    def __post_init__(self):
        if self.window_size < 2:
            raise InvalidInput("window_size must be at least 2")
        shapes = {f.shape for f in self.frames}
        if len(shapes) > 1:
            raise InvalidInput("all frames must share the same (T, d) shape")

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    @property
    def tokens_per_frame(self) -> int:
        return int(self.frames[0].shape[0]) if self.frames else 0


@dataclass(frozen=True)
class IntraReport:
    """Retention accounting of one intra-pruning pass."""

    audio_total: int
    audio_retained: int
    video_total: int
    video_retained: int

    @property
    def audio_retention(self) -> float:
        return self.audio_retained / self.audio_total if self.audio_total else 1.0

    @property
    def video_retention(self) -> float:
        return self.video_retained / self.video_total if self.video_total else 1.0

    @property
    def combined_retention(self) -> float:
        total = self.audio_total + self.video_total
        kept = self.audio_retained + self.video_retained
        return kept / total if total else 1.0


def audio_intra_prune(saliency: AudioSaliency, keep_ratio: float) -> set[int]:
    """Indices of the round(keep_ratio * n) highest-saliency audio tokens.

    Score ties retain the lower index.
    """
    scores = saliency.scores
    if not scores:
        raise InvalidInput("cannot prune an empty score list")
    if not (0.0 < keep_ratio <= 1.0):
        raise InvalidInput("keep_ratio must lie in (0, 1]")
    keep = round_half_away(keep_ratio * len(scores))
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return set(order[:keep])


def video_ttm(grid: FrameGrid, prune_rate: float) -> set[tuple[int, int]]:
    """Retained (frame, token) indices after windowed similarity pruning.

    Per window the first frame survives whole; each remaining token is scored
    by cosine similarity to the same spatial slot of the window's first frame
    (zero vectors score 0), and the round(prune_rate * candidates) most
    similar are dropped, ties dropping the higher (frame, token) index first.
    A trailing partial window follows the same rule over its leftover frames.
    """
    if grid.frame_count == 0:
        raise InvalidInput("frame grid is empty")
    if not (0.0 <= prune_rate < 1.0):
        raise InvalidInput("prune_rate must lie in [0, 1)")

    t_per_frame = grid.tokens_per_frame
    retained: set[tuple[int, int]] = set()
    for start in range(0, grid.frame_count, grid.window_size):
        window = range(start, min(start + grid.window_size, grid.frame_count))
        anchor = grid.frames[start]
        retained.update((start, t) for t in range(t_per_frame))
        candidates = []
        for f in window:
            if f == start:
                continue
            for t in range(t_per_frame):
                try:
                    sim = cosine(grid.frames[f][t], anchor[t])
                except DegenerateInput:
                    sim = 0.0
                candidates.append((sim, f, t))
        drop = round_half_away(prune_rate * len(candidates))
        candidates.sort(key=lambda c: (-c[0], -c[1], -c[2]))
        retained.update((f, t) for _, f, t in candidates[drop:])
    return retained


def apply_intra(
    seq: InterleavedSequence,
    audio_keep: float,
    video_prune_rate: float,
    audio_scores,
    grids,
) -> tuple[InterleavedSequence, IntraReport]:
    """Prune each chunk's audio and video tokens; text is untouched.

    ``audio_scores`` and ``grids`` are indexed by chunk; an entry may be None
    only when the chunk has no tokens of that modality. Stream order and all
    surviving token metadata are preserved.
    """
    n_chunks = seq.max_chunk_index + 1
    audio_scores = list(audio_scores)
    grids = list(grids)
    if len(audio_scores) != n_chunks or len(grids) != n_chunks:
        raise InvalidInput(f"need scores and grids for all {n_chunks} chunks")

    tokens = seq.tokens
    keep = tokens.is_text.copy()
    audio_total = audio_kept = video_total = video_kept = 0

    for c in range(n_chunks):
        in_chunk = tokens.chunk == c
        audio_rows = np.flatnonzero(in_chunk & tokens.mask(Modality.AUDIO))
        audio_total += audio_rows.size
        if audio_rows.size:
            saliency = audio_scores[c]
            if saliency is None or len(saliency.scores) != audio_rows.size:
                raise InvalidInput(f"chunk {c}: saliency length mismatch")
            kept = audio_intra_prune(saliency, audio_keep)
            audio_kept += len(kept)
            keep[audio_rows[list(kept)]] = True

        video_rows = np.flatnonzero(in_chunk & tokens.mask(Modality.VIDEO))
        video_total += video_rows.size
        if video_rows.size:
            grid = grids[c]
            if grid is None or grid.frame_count * grid.tokens_per_frame != video_rows.size:
                raise InvalidInput(f"chunk {c}: frame grid does not cover the video tokens")
            kept_ft = video_ttm(grid, video_prune_rate)
            video_kept += len(kept_ft)
            t_per = grid.tokens_per_frame
            keep[video_rows[[f * t_per + t for f, t in kept_ft]]] = True

    report = IntraReport(
        audio_total=audio_total,
        audio_retained=audio_kept,
        video_total=video_total,
        video_retained=video_kept,
    )
    return seq.subsequence(tokens.id[keep]), report


def grid_from_embeddings(video_rows: np.ndarray, frames: int) -> FrameGrid:
    """Frame grid view of a chunk's video embedding rows, frame-major order."""
    n, d = video_rows.shape
    if frames < 1 or n % frames != 0:
        raise InvalidInput(f"{n} video tokens do not split into {frames} frames")
    t_per = n // frames
    stacked = np.asarray(video_rows, dtype=np.float64).reshape(frames, t_per, d)
    return FrameGrid(frames=tuple(stacked[f] for f in range(frames)))
