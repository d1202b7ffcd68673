"""The benchmark's tracer over a forward run, its replay and a cosine histogram.

``perfbench/spans.py`` wraps pipeline functions by name (the harness's
scorer, selectors and intra stage, the CLI's metric functions) and counts
their results with ``len()``. A renamed function crashes it at import, and a
changed signature or an unsized result shows up as an error count. So these
commands run traced here, and every ``*.errors`` count must be 0.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402

from tests.test_cli import SMALL_CONFIG  # noqa: E402


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
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op, argv in commands.items():
            tracer.op = op
            assert workloads.call_cli(argv)[0] == 0, op
    finally:
        tracer.uninstall()
    assert spans.unwrapped_violations() == []

    metrics = {op: tracer.layer_metrics([op]) for op in commands}
    for op, m in metrics.items():
        assert {name: v for name, v in m.items() if name.endswith(".errors") and v} == {}, op
    for op in ("forward", "replay"):
        if selector != "random":  # the random selector reads no scores
            assert metrics[op]["importance.scored"] > 0, op
        assert metrics[op]["importance.pruned"] > 0, op
    assert metrics["forward"]["importance.pruned"] == metrics["replay"]["importance.pruned"]
    assert metrics["cosine"]["metrics.cosine_pairs"] > 0
