"""The benchmark's tracer over a forward run, its replay and the diagnostics.

``perfbench/spans.py`` wraps pipeline functions by name (the harness's
scorer, selectors and intra stage, the CLI's metric functions) and counts
their results with ``len()``. A renamed function crashes it at import, and a
changed signature or an unsized result shows up as an error count. So these
commands run traced here, and every ``*.errors`` count must be 0. A call
that goes around a wrapped name leaves its target without a span, so one
command set must reach every target.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402

from tests.test_cli import SMALL_CONFIG  # noqa: E402


def traced(commands: dict[str, list[str]]) -> spans.Tracer:
    """A tracer that saw each command run as its own op; each must exit 0."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op, argv in commands.items():
            tracer.op = op
            assert workloads.call_cli(argv)[0] == 0, op
    finally:
        tracer.uninstall()
    assert spans.unwrapped_violations() == []
    return tracer


@pytest.mark.parametrize("selector", ["tds", "random"])
def test_traced_simulate_replay_and_cosine_count_no_errors(tmp_path, selector):
    config, run = tmp_path / "config.json", tmp_path / "run"
    config.write_text(json.dumps(SMALL_CONFIG))
    simulate = ["simulate", "--config", str(config), "--selector", selector]
    commands = {
        "forward": [*simulate, "--out", str(run), "--dump-attention"],
        "replay": [*simulate, "--out", str(tmp_path / "replay"), "--inject", str(run / "attention")],
        "cosine": [
            "analyze", "--metric", "cosine", "--embeddings", str(run / "embeddings.omtn"),
            "--tokens", str(run / "tokens.jsonl"), "--out", str(tmp_path / "cosine.csv"),
        ],
    }
    tracer = traced(commands)

    metrics = {op: tracer.layer_metrics([op]) for op in commands}
    for op, m in metrics.items():
        assert {name: v for name, v in m.items() if name.endswith(".errors") and v} == {}, op
    for op in ("forward", "replay"):
        if selector != "random":  # the random selector reads no scores
            assert metrics[op]["importance.scored"] > 0, op
        assert metrics[op]["importance.pruned"] > 0, op
    assert metrics["forward"]["importance.pruned"] == metrics["replay"]["importance.pruned"]
    assert metrics["cosine"]["metrics.cosine_pairs"] > 0


def test_every_target_records_a_span(tmp_path):
    config, run = tmp_path / "config.json", tmp_path / "run"
    config.write_text(json.dumps(SMALL_CONFIG))
    intra = ["--set", "intra.enabled=true", "--set", "intra.frames_per_chunk=2", "--set", "intra.tokens_per_frame=4"]
    simulate = ["simulate", "--config", str(config), *intra]
    analyze = ["analyze", "--embeddings", str(run / "embeddings.omtn"), "--tokens", str(run / "tokens.jsonl")]
    commands = {
        "forward": [*simulate, "--out", str(run), "--dump-attention"],
        "replay": [*simulate, "--out", str(tmp_path / "replay"), "--inject", str(run / "attention")],
        "random": [*simulate, "--selector", "random", "--out", str(tmp_path / "random")],
        "cosine": [*analyze, "--metric", "cosine"],
        "pca": [*analyze, "--metric", "pca"],
        "recall": ["analyze", "--metric", "recall", "--attention", str(run / "attention" / "layer_0000.omtn")],
        "retention": ["analyze", "--metric", "retention", "--trace", str(run / "trace.jsonl")],
        "cost": ["cost", "--trace", str(run / "trace.jsonl"), "--d", "16"],
    }
    tracer = traced(commands)
    assert {span[0] for span in tracer.spans} == {t.name for t in spans.TARGETS}
    errors = {name: v for name, v in tracer.layer_metrics(commands).items() if name.endswith(".errors") and v}
    assert errors == {}
