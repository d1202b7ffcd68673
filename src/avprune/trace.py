"""Per-layer pruning records of one harness run and their canonical digest.

A trace is what the pipeline produces and what the diagnostics, the trace
file reader and the cost model consume; it depends on no decoder code.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidInput, SchemaError
from .importance import Selector


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


class RecordError(InvalidInput):
    """A trace rule broken by the record at ``index``."""

    def __init__(self, index: int, rule: str):
        super().__init__(f"layer record {index}: {rule}")
        self.index, self.rule = index, rule


@dataclass(frozen=True)
class PruneTrace:
    """Per-layer pruning record of one harness run.

    Counts are the tokens *entering* each layer, so consecutive records obey
    survivors(l+1) = survivors(l) - k_l and the pruned ids plus the final
    survivors partition the initial audiovisual population. Construction
    checks each record against the rules listed in ``__post_init__`` and
    raises RecordError for the first one broken.
    """

    layers: tuple[LayerRecord, ...]

    def __post_init__(self):
        pruned: set[int] = set()
        for index, rec in enumerate(self.layers):
            prev = self.layers[index - 1] if index else None
            entering, ids = rec.n_audio + rec.n_video, set(rec.pruned_ids)
            for broken, rule in (
                (rec.layer != index, f"labeled layer {rec.layer}"),
                (min(rec.k_l, rec.n_audio, rec.n_video, rec.n_text) < 0, "counts must be >= 0"),
                (not 0.0 <= rec.p_l < 1.0, f"p_l {rec.p_l} must be finite and in [0, 1)"),  # NaN fails
                (rec.k_l > entering, f"k_l {rec.k_l} exceeds the {entering} audiovisual tokens"),
                (len(rec.pruned_ids) != rec.k_l, "pruned id list must match k_l"),
                (len(ids) != rec.k_l or min(ids, default=0) < 0, "pruned ids must be distinct and >= 0"),
                (not ids.isdisjoint(pruned), "a pruned id was already pruned at an earlier layer"),
                (rec.selector not in {s.value for s in Selector}, f"unknown selector {rec.selector!r}"),
                (prev and rec.n_text != prev.n_text, "text count must stay constant across layers"),
                (prev and entering != prev.n_audio + prev.n_video - prev.k_l, "entering counts must drop by k_l"),
            ):
                if broken:
                    raise RecordError(index, rule)
            pruned |= ids

    @cached_property  # a run writes the lines and reads the digest: serialize once
    def lines(self) -> tuple[str, ...]:
        """One canonical JSON line per layer record: the trace file's lines, which the digest hashes."""
        return tuple(json.dumps(vars(rec), sort_keys=True, separators=(",", ":")) for rec in self.layers)

    @cached_property
    def digest(self) -> str:
        payload = "\n".join(self.lines).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]
