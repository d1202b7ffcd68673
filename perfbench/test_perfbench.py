"""Tests of the benchmark's own arithmetic and bookkeeping."""

from __future__ import annotations

import json

import numpy as np
import pytest

import run
import spans
import workloads as wl

NAME = {t.stem: t.name for t in reversed(spans.TARGETS)}  # first target per stem


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9].
    tree = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["g", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_sum_self_time_by_stem_over_the_window():
    tracer = spans.Tracer()
    tracer.spans[:] = [
        [NAME["cli.self"], 0.0, 10.0, None, 0],
        [NAME["harness.forward"], 1.0, 7.0, 0, 0],
        [NAME["numerics.gaussians"], 2.0, 3.0, 1, 0],
        [NAME["numerics.gaussians"], 4.0, 4.5, 1, 0],
        [NAME["cli.self"], 20.0, 25.0, None, 1],  # outside the window
    ]
    tracer.op_counts[0]["numerics.draws"] = 7
    tracer.op_counts[1]["numerics.draws"] = 100
    m = tracer.layer_metrics([0])
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["harness.forward_s"] == pytest.approx(4.5)
    assert m["numerics.gaussians_s"] == pytest.approx(1.5)
    assert m["numerics.draws"] == 7
    assert m["trace.spans"] == 4
    assert set(m) == set(spans.per_layer_units())


def test_calibrator_scales_by_the_samples_on_both_sides():
    samples = iter([9.0, 0.2, 0.6, 0.2]).__next__  # the first one warms up
    cal = run.Calibrator(samples, nominal_s=0.2)
    assert cal.scale() == pytest.approx(0.5)  # 0.2 / mean(0.2, 0.6)
    assert cal.scale() == pytest.approx(0.5)  # 0.2 / mean(0.6, 0.2)
    assert cal.samples == [0.2, 0.6, 0.2]


def test_calibrated_loop_times_blocks_of_whole_rounds():
    cal = run.Calibrator(iter([1.0, 0.1, 0.1, 0.2, 0.1, 0.1]).__next__, nominal_s=0.1)
    clock = iter(range(1000)).__next__  # every op takes 1 clock tick
    records, blocks, _ = run.calibrated_loop(
        lambda i: ([str(i)], None), seconds=0.0, round_ops=2, calibrator=cal, block_s=3.0, clock=clock
    )
    assert [r.index for r in records] == list(range(12))
    assert [(b.ops, b.seconds) for b in blocks] == [(4, 4.0)] * 3
    assert [b.norm_op_s for b in blocks] == pytest.approx([1.0, 2 / 3, 2 / 3])


def test_median_of_blocks_after_warm_up_and_setup_median():
    blocks = [run.Block(1, 9.0, 1.0), run.Block(2, 2.0, 1.0), run.Block(1, 3.0, 1.0), run.Block(1, 2.0, 0.5)]
    odd = run.end_to_end(blocks, setup_samples=[0.5, 0.1, 0.3], peak_rss_mb=9.0)
    assert odd == {"op_norm_s": 1.0, "peak_rss_mb": 9.0, "setup_s": 0.3}  # median of 1, 3, 1
    even = run.end_to_end(blocks[:3], setup_samples=[1.0, 2.0], peak_rss_mb=9.0)
    assert even == {"op_norm_s": 2.0, "peak_rss_mb": 9.0, "setup_s": 1.5}


def test_failures_are_counted_not_raised():
    def call(argv):
        return (4, "") if argv == ["exit4"] else (0, argv[0])

    def op(i):
        if i == 0:
            raise ValueError("boom")
        return run.run_op([["exit4"]] if i == 1 else [[f"digest{i}"]], call)

    clock = iter(range(100)).__next__
    records, _ = run.timed_loop(op, 0, seconds=0.0, min_ops=4, clock=clock)

    def check(rec):
        if rec.stdouts != ["digest3"]:
            raise wl.CheckFailed(f"wrong digest {rec.stdouts}")

    assert run.apply_checks(records, check) == 3
    assert [r.error is None for r in records] == [False, False, False, True]
    assert "ValueError" in records[0].error and "exited 4" in records[1].error
    line = json.loads(run.result_line(False, records, {"op_norm_s": 1.0}, {"op_norm_s": "s"}))
    assert (line["attempted"], line["failed"]) == (4, 3)


def _default_op(tmp_path, pins):
    workload = wl.WORKLOADS["sim-default"]
    ctx = wl.Context(wl.DEFAULT_SEED, tmp_path, {}, pins)
    out = tmp_path / "op"
    stdouts, error = run.run_op(workload.argvs(ctx, 0, out), wl.call_cli)
    records = [run.OpRecord(0, 1.0, stdouts, error)]
    return run.apply_checks(records, lambda rec: workload.check(ctx, 0, out, rec.stdouts)), records


def test_default_op_reads_the_pinned_digest(tmp_path):
    pins = wl.pins_for("sim-default", wl.DEFAULT_SEED)
    assert pins[str(wl.DEFAULT_SEED)] == wl.DEFAULT_DIGEST == "1feea8ec49fc45a7"
    failed, records = _default_op(tmp_path, pins)
    assert failed == 0
    assert wl.printed(records[0].stdouts[0], "trace_digest") == "1feea8ec49fc45a7"


def test_wrong_pinned_digest_is_a_counted_failure(tmp_path):
    failed, records = _default_op(tmp_path, {str(wl.DEFAULT_SEED): "0000000000000000"})
    assert failed == 1
    assert "!= pinned 0000000000000000" in records[0].error


def test_tracer_wraps_and_restores(tmp_path):
    emb = tmp_path / "emb.omtn"
    wl.avprune.tensorio.write_tensor(emb, np.arange(40, dtype=np.float32).reshape(10, 4) ** 1.5)
    tracer = spans.Tracer()
    assert spans.unwrapped_violations() == []
    tracer.install()
    try:
        assert len(spans.unwrapped_violations()) == len(spans.TARGETS)
        tracer.op = 0
        rc, _ = wl.call_cli(["analyze", "--metric", "pca", "--embeddings", str(emb)])
    finally:
        tracer.uninstall()
    assert rc == 0 and spans.unwrapped_violations() == []
    names = [s[0] for s in tracer.spans]
    assert names == ["avprune.cli.main", "avprune.tensorio.read_tensor", "avprune.cli.pca2"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    m = tracer.layer_metrics([0])
    assert m["tensorio.bytes_read"] == emb.stat().st_size
    assert m["numerics.pca2_s"] > 0 and m["tensorio.read_s"] > 0


def test_exception_leaving_a_wrapped_call_is_counted(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        rc, _ = wl.call_cli(["analyze", "--metric", "pca", "--embeddings", str(tmp_path / "missing.omtn")])
    finally:
        tracer.uninstall()
    assert rc == 4  # main maps the OSError to the schema exit code
    m = tracer.layer_metrics([0])
    assert (m["tensorio.errors"], m["cli.errors"]) == (1, 0)


def test_exact_counts_must_repeat(tmp_path):
    path = tmp_path / "counts.json"
    assert run.compare_counts(path, {"numerics.draws": 5}) is None  # stored
    assert run.compare_counts(path, {"numerics.draws": 5}) is None
    assert "numerics.draws" in run.compare_counts(path, {"numerics.draws": 6})


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
