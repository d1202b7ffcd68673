"""Outside-in tracing of the avprune pipeline.

Each traced function is replaced, in the namespace the pipeline looks it up
from, by a wrapper that records a span (name, start, end, parent span, op
id) in memory and adds its counts to the current op. Nothing under
``src/avprune`` is edited: ``install`` swaps the attributes in and
``uninstall`` puts the original objects back.

Per-layer metrics are computed from the spans of a fixed window of ops. A
``<stem>_s`` metric is self time (span duration minus the time its child
spans cover) summed over the window; the other metrics are counts.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from workloads import SRC  # noqa: F401  (imports avprune from the checkout's src)

import avprune.cli
import avprune.config
import avprune.harness
import avprune.numerics
import avprune.tensorio


def _draws(counts, args, kwargs, result):
    counts["numerics.draws"] += len(result)


def _tokens(counts, args, kwargs, result):
    counts["sequence.tokens"] += result.n


def _forward(counts, args, kwargs, result):
    # run_with_pruning(seq, model, ...): every layer scores heads * n_l^2
    # entries over the n_l tokens entering it.
    model = args[1] if len(args) > 1 else kwargs["model"]
    for rec in result.layers:
        n = rec.n_audio + rec.n_video + rec.n_text
        counts["harness.token_layers"] += n
        counts["harness.attn_scores"] += model.heads * n * n


def _intra(counts, args, kwargs, result):
    seq = args[0] if args else kwargs["seq"]
    counts["intra.tokens_in"] += seq.n
    counts["intra.tokens_out"] += result[0].n


def _scored(counts, args, kwargs, result):
    counts["importance.scored"] += len(result)


def _pruned(counts, args, kwargs, result):
    counts["importance.pruned"] += len(result)


def _written(counts, args, kwargs, result):
    counts["tensorio.bytes_written"] += os.path.getsize(args[0])


def _read(counts, args, kwargs, result):
    counts["tensorio.bytes_read"] += os.path.getsize(args[0])


def _pairs(counts, args, kwargs, result):
    counts["metrics.cosine_pairs"] += result.pairs_used


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr``, reported under ``stem``."""

    owner: object
    attr: str
    stem: str
    count: Callable | None = None

    @property
    def name(self) -> str:
        owner = getattr(self.owner, "__qualname__", None)
        module = getattr(self.owner, "__module__", None) if owner else self.owner.__name__
        return f"{module}.{owner}.{self.attr}" if owner else f"{module}.{self.attr}"

    @property
    def module(self) -> str:
        return self.stem.split(".")[0]


_cli, _config, _harness, _tensorio = avprune.cli, avprune.config, avprune.harness, avprune.tensorio

# Wrapped where the pipeline looks each function up: the CLI calls the
# harness, metric and PCA functions by the names it imported, the config
# builds sequences by its own import, and the harness calls the selectors
# and intra pruning by its imports. Methods are wrapped on their class.
TARGETS: tuple[Target, ...] = (
    Target(_cli, "main", "cli.self"),
    Target(_config.ExperimentConfig, "resolve", "config.resolve"),
    Target(_config, "build_sequence", "sequence.build", _tokens),
    Target(avprune.numerics.Rng, "gaussians", "numerics.gaussians", _draws),
    Target(_harness.ToyDecoder, "__init__", "harness.init"),
    Target(_cli, "make_intra_plan", "harness.intra_plan"),
    Target(_cli, "run_with_pruning", "harness.forward", _forward),
    Target(_cli, "run_with_injected_attention", "harness.replay"),
    Target(_harness, "apply_intra", "intra.apply", _intra),
    Target(_harness, "query_importance", "importance.score", _scored),
    Target(_harness, "plain_select", "importance.select", _pruned),
    Target(_harness, "tds_select", "importance.select", _pruned),
    Target(_harness, "random_select", "importance.select", _pruned),
    Target(_tensorio, "write_tensor", "tensorio.write", _written),
    Target(_tensorio, "write_ids", "tensorio.write", _written),
    Target(_tensorio, "write_trace_jsonl", "tensorio.write", _written),
    Target(_tensorio, "read_tensor", "tensorio.read", _read),
    Target(_tensorio, "read_ids", "tensorio.read", _read),
    Target(_tensorio, "read_trace_jsonl", "tensorio.read", _read),
    Target(_cli, "cosine_distribution", "metrics.cosine", _pairs),
    Target(_cli, "top20_recall", "metrics.other"),
    Target(_cli, "retention_per_modality", "metrics.other"),
    Target(_cli, "cost_model", "metrics.other"),
    Target(_cli, "pca2", "numerics.pca2"),
)

# The objects found at import, before anything could wrap them.
ORIGINALS: tuple[object, ...] = tuple(vars(t.owner)[t.attr] for t in TARGETS)

TIME_STEMS = tuple(dict.fromkeys(t.stem for t in TARGETS))
MODULES = tuple(dict.fromkeys(t.module for t in TARGETS))
COUNT_NAMES = (
    "numerics.draws",
    "harness.attn_scores",
    "harness.token_layers",
    "importance.scored",
    "importance.pruned",
    "sequence.tokens",
    "tensorio.bytes_written",
    "tensorio.bytes_read",
    "metrics.cosine_pairs",
)
UNITS = {"tensorio.bytes_written": "bytes", "tensorio.bytes_read": "bytes"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{stem}_s": "s" for stem in TIME_STEMS}
    units.update({name: UNITS.get(name, "count") for name in COUNT_NAMES})
    units["intra.kept_ratio"] = "ratio"
    units.update({f"{module}.errors": "count" for module in MODULES})
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def unwrapped_violations() -> list[str]:
    """Names of traced attributes that are not their original objects now."""
    return [
        t.name for t, original in zip(TARGETS, ORIGINALS) if vars(t.owner)[t.attr] is not original
    ]


class Tracer:
    """Span recorder; spans and counts stay in memory until written out."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.op_counts: defaultdict[object, Counter] = defaultdict(Counter)
        self.op: object = None
        self._stack: list[int] = []
        self._installed = False

    def _wrapper(self, target: Target, fn: Callable) -> Callable:
        spans, stack, name = self.spans, self._stack, target.name
        errors_key = f"{target.module}.errors"

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.op_counts[self.op][errors_key] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if target.count is not None:
                target.count(self.op_counts[self.op], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for target, original in zip(TARGETS, ORIGINALS):
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrapper(target, original.__func__))
            else:
                wrapped = self._wrapper(target, original)
            setattr(target.owner, target.attr, wrapped)
        self._installed = True

    def uninstall(self):
        for target, original in zip(TARGETS, ORIGINALS):
            setattr(target.owner, target.attr, original)
        self._installed = False

    def layer_metrics(self, window) -> dict[str, float]:
        """Per-layer metrics over the spans and counts of the ops in ``window``."""
        window = set(window)
        stem_of = {t.name: t.stem for t in TARGETS}
        selfs = self_times(self.spans)
        values = {name: 0.0 if unit in ("s", "ratio") else 0 for name, unit in per_layer_units().items()}
        for span, own in zip(self.spans, selfs):
            if span[4] in window:
                values[f"{stem_of[span[0]]}_s"] += own
                values["trace.spans"] += 1
        counts = Counter()
        for op in window:
            counts.update(self.op_counts[op])
        for name in COUNT_NAMES:
            values[name] = counts[name]
        for module in MODULES:
            values[f"{module}.errors"] = counts[f"{module}.errors"]
        if counts["intra.tokens_in"]:
            values["intra.kept_ratio"] = counts["intra.tokens_out"] / counts["intra.tokens_in"]
        return values

    def span_records(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
            for s in self.spans
        ]


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread and nest, so the children of a span cover
    disjoint parts of its interval.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own
