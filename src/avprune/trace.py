"""Per-layer pruning records of one harness run and their canonical digest.

A trace is what the pipeline produces and what the diagnostics, the trace
file reader and the cost model consume; it depends on no decoder code.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .errors import InvalidInput, SchemaError


@dataclass(frozen=True)
class LayerRecord:
    """What happened at one layer: budget, pruned ids, entering counts."""

    layer: int
    p_l: float
    k_l: int
    pruned_ids: tuple[int, ...]
    n_audio: int
    n_video: int
    n_text: int
    selector: str

    def to_json_obj(self) -> dict:
        return {
            "layer": self.layer,
            "p_l": self.p_l,
            "k_l": self.k_l,
            "pruned_ids": list(self.pruned_ids),
            "n_audio": self.n_audio,
            "n_video": self.n_video,
            "n_text": self.n_text,
            "selector": self.selector,
        }

    @staticmethod
    def from_json_obj(obj) -> "LayerRecord":
        """Record from a parsed JSON line; SchemaError names a missing or mistyped key."""
        if not isinstance(obj, dict):
            raise SchemaError("layer record is not a JSON object")
        pruned = _field(obj, "pruned_ids", list)
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in pruned):
            raise SchemaError("layer record key 'pruned_ids' must hold integers")
        return LayerRecord(
            layer=_field(obj, "layer", int),
            p_l=_field(obj, "p_l", (int, float)),
            k_l=_field(obj, "k_l", int),
            pruned_ids=tuple(pruned),
            n_audio=_field(obj, "n_audio", int),
            n_video=_field(obj, "n_video", int),
            n_text=_field(obj, "n_text", int),
            selector=_field(obj, "selector", str),
        )


def _field(obj: dict, key: str, kind):
    if key not in obj:
        raise SchemaError(f"layer record missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(f"layer record key {key!r} has the wrong type")
    return value


@dataclass(frozen=True)
class PruneTrace:
    """Per-layer pruning record of one harness run.

    Counts are the tokens *entering* each layer, so consecutive records obey
    survivors(l+1) = survivors(l) - k_l and the pruned ids plus the final
    survivors partition the initial audiovisual population.
    """

    layers: tuple[LayerRecord, ...]

    def __post_init__(self):
        prev: LayerRecord | None = None
        for rec in self.layers:
            if prev is not None:
                if rec.n_text != prev.n_text:
                    raise InvalidInput("text count must stay constant across layers")
                if rec.n_audio + rec.n_video != prev.n_audio + prev.n_video - prev.k_l:
                    raise InvalidInput("entering counts must drop by exactly k_l")
            if len(rec.pruned_ids) != rec.k_l:
                raise InvalidInput("pruned id list must match k_l")
            prev = rec

    @property
    def initial_audio(self) -> int:
        return self.layers[0].n_audio

    @property
    def initial_video(self) -> int:
        return self.layers[0].n_video

    @property
    def final_survivors(self) -> int:
        last = self.layers[-1]
        return last.n_audio + last.n_video - last.k_l

    @property
    def total_pruned(self) -> int:
        return sum(rec.k_l for rec in self.layers)

    def canonical_lines(self) -> list[str]:
        return [
            json.dumps(rec.to_json_obj(), sort_keys=True, separators=(",", ":"))
            for rec in self.layers
        ]

    @property
    def digest(self) -> str:
        payload = "\n".join(self.canonical_lines()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]
