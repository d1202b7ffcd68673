"""Experiment configuration: one JSON document, merged and checked key by key.

Precedence is flag > file > default. One merge folds the document and each
override into a copy of ``DEFAULTS``; every leaf must have the JSON type of
its default. Range rules belong to the typed objects built here once
(``PruneScheduleConfig``, ``TdsConfig``, ``ChunkSpec``, the enums), and their
errors are reported under the offending key path. Checked here are only the
rules whose owner is too costly to build at resolve time (the sequence
scalars, ``model.heads``) and the rules that span sections. The canonical
resolved document also yields the config digest stamped on output files.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from .errors import InvalidInput
from .harness import ToyDecoder
from .importance import Selector, TdsConfig
from .schedule import PruneScheduleConfig, ScheduleKind
from .sequence import ChunkSpec, InterleavedSequence, build_sequence

DEFAULTS: dict[str, dict[str, Any] | Any] = {
    "sequence": {"sys_len": 4, "chunks": 2, "n_v": 288, "n_a": 50, "query_len": 8, "d": 32, "seed": 0},
    "model": {"layers": 28, "heads": 4, "d": 32, "seed": 1},
    "schedule": {"kind": "sigmoid", "p_init": 0.0, "p_final": 0.2, "t_mid": 0.5, "beta": 20.0},
    "tds": {"lambda_div": 0.2, "start_layer": 14},
    "intra": {
        "enabled": False,
        "audio_keep": 0.7,
        "video_prune_rate": 0.8,
        "frames_per_chunk": 4,
        "tokens_per_frame": 72,
    },
    "selector": "tds",
    "workers": 1,
}


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise InvalidInput(f"{path}: {message}")


# The JSON type each key takes, keyed by the type of its default.
_TYPE_RULES = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    # NaN and infinities fail the bound, and so do ints too large for a float.
    float: (
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max,
        "a finite number",
    ),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _merge(node: dict, fragment, defaults: dict, path: str = ""):
    """Merge ``fragment`` into ``node`` key by key; ``defaults`` gives the keys and leaf types."""
    _require(isinstance(fragment, dict), path or "configuration", "expected an object")
    for key, value in fragment.items():
        where = f"{path}.{key}" if path else key
        _require(key in defaults, where, "unknown configuration key")
        if isinstance(defaults[key], dict):
            _merge(node[key], value, defaults[key], where)
        else:
            accepts, kind = _TYPE_RULES[type(defaults[key])]
            _require(accepts(value), where, f"expected {kind}")
            if type(defaults[key]) is int and key != "seed":  # a size; seeds are masked to 64 bits instead
                _require(-(1 << 63) <= value < 1 << 63, where, "must fit in a signed 64-bit integer")
            node[key] = value


@contextmanager
def _key_paths(section: str, **paths):
    """Prefix a typed object's "field: message" error with the field's key path."""
    try:
        yield
    except InvalidInput as exc:
        field, _, message = str(exc).partition(": ")
        raise InvalidInput(f"{paths.get(field, f'{section}.{field}')}: {message}") from None


def _member(kind, value: str, path: str):
    try:
        return kind(value)
    except ValueError:
        raise InvalidInput(f"{path}: must be one of {sorted(m.value for m in kind)}") from None


def _digest(document: dict) -> str:
    """16 hex characters of the sha256 of the document's canonical JSON."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings: the document as given plus its typed parts."""

    raw: dict
    schedule: PruneScheduleConfig
    tds: TdsConfig
    chunk: ChunkSpec  # the counts of every chunk; build_sequence numbers them
    selector: Selector

    @staticmethod
    def resolve(document: dict | None = None, overrides: dict[str, Any] | None = None) -> "ExperimentConfig":
        """Merge defaults <- document <- dotted-path overrides, then check and build."""
        raw = json.loads(json.dumps(DEFAULTS))  # deep copy
        _merge(raw, document or {}, DEFAULTS)
        for path, value in (overrides or {}).items():
            for part in reversed(path.split(".")):
                value = {part: value}
            _merge(raw, value, DEFAULTS)

        seq, model, intra = raw["sequence"], raw["model"], raw["intra"]
        _require(seq["sys_len"] >= 0, "sequence.sys_len", "must be >= 0")
        _require(seq["chunks"] >= 1, "sequence.chunks", "must be >= 1")
        _require(seq["query_len"] >= 1, "sequence.query_len", "must be >= 1")
        _require(seq["d"] >= 2, "sequence.d", "must be >= 2")
        _require(model["heads"] >= 1, "model.heads", "must be >= 1")
        _require(model["d"] % model["heads"] == 0, "model.d", "must be divisible by model.heads")
        _require(model["d"] == seq["d"], "model.d", "must equal sequence.d")
        _require(0.0 < intra["audio_keep"] <= 1.0, "intra.audio_keep", "must lie in (0, 1]")
        _require(0.0 <= intra["video_prune_rate"] < 1.0, "intra.video_prune_rate", "must lie in [0, 1)")
        _require(intra["frames_per_chunk"] >= 1, "intra.frames_per_chunk", "must be >= 1")
        _require(intra["tokens_per_frame"] >= 1, "intra.tokens_per_frame", "must be >= 1")
        if intra["enabled"] and seq["n_v"]:
            _require(
                intra["frames_per_chunk"] * intra["tokens_per_frame"] == seq["n_v"],
                "intra.frames_per_chunk",
                "frames_per_chunk * tokens_per_frame must equal sequence.n_v",
            )
        _require(raw["workers"] >= 1, "workers", "must be >= 1")

        s, t = raw["schedule"], raw["tds"]
        kind = _member(ScheduleKind, s["kind"], "schedule.kind")
        with _key_paths("schedule", layers="model.layers"):
            schedule = PruneScheduleConfig(
                p_init=float(s["p_init"]),
                p_final=float(s["p_final"]),
                t_mid=float(s["t_mid"]),
                beta=float(s["beta"]),
                layers=model["layers"],
                kind=kind,
            )
        with _key_paths("tds"):
            tds = TdsConfig(lambda_div=float(t["lambda_div"]), start_layer=t["start_layer"])
        with _key_paths("sequence"):
            chunk = ChunkSpec(n_v=seq["n_v"], n_a=seq["n_a"])
        selector = _member(Selector, raw["selector"], "selector")

        # numpy sizes no array past sys.maxsize bytes; each error names the largest term.
        terms = {k: seq[k] for k in ("sys_len", "query_len")} | {k: seq["chunks"] * seq[k] for k in ("n_v", "n_a")}
        n0, key = sum(terms.values()), f"sequence.{max(terms, key=terms.get)}"
        _require(4 * n0 * n0 <= sys.maxsize, key, f"{n0} tokens' (n0, n0) float32 scores are too big for numpy")
        layers, d = model["layers"], model["d"]
        draws, key = 12 * layers * d * d, "model.d" if d * d > layers else "model.layers"
        _require(8 * draws <= sys.maxsize, key, f"the decoder's {draws} float64 draws are too big for numpy")
        return ExperimentConfig(raw=raw, schedule=schedule, tds=tds, chunk=chunk, selector=selector)

    @property
    def digest(self) -> str:
        return _digest(self.raw)

    @property
    def layout_digest(self) -> str:
        """Digest of the ``sequence`` and ``intra`` sections, which fix the tokens an attention dump spans."""
        return _digest({section: self.raw[section] for section in ("sequence", "intra")})

    def build_sequence(self) -> InterleavedSequence:
        s = self.raw["sequence"]
        return build_sequence(s["sys_len"], [self.chunk] * s["chunks"], s["query_len"], s["d"], s["seed"])

    def build_model(self) -> ToyDecoder:
        m = self.raw["model"]
        return ToyDecoder(layers=m["layers"], heads=m["heads"], d=m["d"], seed=m["seed"])


def load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, or nesting too deep
        raise InvalidInput(f"{path}: not UTF-8 JSON ({exc})") from None
    except OSError as exc:
        raise InvalidInput(f"{path}: cannot read ({exc.strerror})") from None
    if not isinstance(document, dict):
        raise InvalidInput(f"{path}: top level must be a JSON object")
    return document
