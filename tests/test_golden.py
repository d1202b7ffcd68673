"""Golden digests: the forward trace of fixed configs is pinned bit for bit.

Each config runs ``simulate --dump-attention`` and then replays the dump
with ``--inject``; both must read the pinned trace digest. The default run's
output files, its dump's manifest and first layer, the reports that
``schedule``, ``analyze`` and ``cost`` write, and the whole transcript of
``calibrate`` over a grid of inputs are pinned by sha256 as well, so a
refactor that changes a byte of any artifact fails here rather than
drifting unnoticed.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import avprune
from avprune.cli import main

GOLDEN = {
    "default": ((), "1feea8ec49fc45a7"),
    "selector-plain": (("--selector", "plain"), "a8d7582405566bc8"),
    "selector-random": (("--selector", "random"), "cd802d9343f55442"),
    "intra": (("--set", "intra.enabled=true"), "cbf6982d056dcb35"),
    "chunks-4": (("--set", "sequence.chunks=4"), "c0aef2277e2bbb94"),
    "chunks-1": (("--set", "sequence.chunks=1"), "12db76b9825b7ddb"),
    # d=9: d*d and the per-row block widths are odd, so a Box-Muller pair
    # straddles weight matrices and embedding rows.
    "odd-width": (
        ("--set", "sequence.d=9", "--set", "model.d=9", "--set", "model.heads=3"),
        "d6e8c1adfdb583e5",
    ),
    # Under one BLAS thread, computing the context in 512-row blocks moves this
    # digest: OpenBLAS picks a product's kernel path from its size.
    "seed-6": (("--set", "sequence.seed=6", "--set", "model.seed=7"), "4a358ab73c0db034"),
}

DEFAULT_OUTPUTS = {
    "trace.jsonl": "26047d40d967d947",
    "tokens.jsonl": "f6ab2ac507e07f38",
    "retention.csv": "ae53d66466108cd9",
    "config.json": "a702ed320ff1be5d",
    "embeddings.omtn": "70f71c833f0a2204",
}


def _trace_digest(capsys, argv) -> str:
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    return next(ln.split("=", 1)[1] for ln in out.splitlines() if ln.startswith("trace_digest="))


@pytest.mark.parametrize("name", list(GOLDEN))
def test_forward_digest_is_pinned_and_replays(name, capsys, tmp_path):
    extra, expected = GOLDEN[name]
    forward = tmp_path / "forward"
    replay = tmp_path / "replay"
    assert _trace_digest(capsys, ["simulate", *extra, "--out", str(forward), "--dump-attention"]) == expected
    replayed = _trace_digest(
        capsys, ["simulate", *extra, "--out", str(replay), "--inject", str(forward / "attention")]
    )
    assert replayed == expected


# The suite runs at one BLAS thread (conftest.py). At two, odd-width's
# forward pass rounds a product differently and prunes other ids from layer
# 17 on; seed-6 and chunks-4 read the same digest at both. chunks-4 is the
# golden run whose layer 10 (n = 1345) ends on a one-row score block.
TWO_THREAD_DIGESTS = {
    "odd-width": "3f45eb2b7a724b1a",
    "seed-6": "4a358ab73c0db034",
    "chunks-4": "c0aef2277e2bbb94",
}


@pytest.mark.parametrize("name", list(TWO_THREAD_DIGESTS))
def test_digest_is_pinned_under_two_blas_threads(name, tmp_path):
    env = dict(
        os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", PYTHONPATH=str(Path(avprune.__file__).parents[1])
    )
    argv = [sys.executable, "-m", "avprune.cli", "simulate", *GOLDEN[name][0], "--out", str(tmp_path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300, check=True)
    assert f"trace_digest={TWO_THREAD_DIGESTS[name]}" in done.stdout.splitlines()


def test_default_outputs_are_pinned(capsys, tmp_path):
    assert _trace_digest(capsys, ["simulate", "--out", str(tmp_path)]) == GOLDEN["default"][1]
    for name, prefix in DEFAULT_OUTPUTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16] == prefix, name


# A sigmoid with both tails inside the layer range: p_init > 0 and t_mid off centre.
SIGMOID_SCHEDULE_DOCUMENT = {"model": {"layers": 12}, "schedule": {"p_init": 0.05, "t_mid": 0.3, "beta": 8.0}}


def test_sigmoid_schedule_report_is_pinned(tmp_path):
    (tmp_path / "schedule.json").write_text(json.dumps(SIGMOID_SCHEDULE_DOCUMENT))
    out = tmp_path / "schedule.csv"
    assert main(["schedule", "--config", str(tmp_path / "schedule.json"), "--out", str(out)]) == 0
    assert _sha(out) == "775808a9de92a80e"


# Solved, infeasible and refused cases alike: the exit code and the exact text
# of every answer and refusal are pinned, in the order the checks fire.
CALIBRATE_GRID = itertools.product(
    ("0.30", "0.44", "0.45", "0.2", "0.001", "0.6", "0"),  # --target
    ("0.45", "1.0", "1.5"),  # --r0
    ("28", "12", "5", "3", "2"),  # --layers
    ("20", "8", "0"),  # --beta
)


def test_calibrate_transcript_is_pinned(capsys):
    transcript = hashlib.sha256()
    for target, r0, layers, beta in CALIBRATE_GRID:
        argv = ["calibrate", "--target", target, "--r0", r0, "--layers", layers, "--beta", beta]
        code = main(argv)
        out, err = capsys.readouterr()
        transcript.update(json.dumps([argv, code, out, err]).encode() + b"\n")
    assert transcript.hexdigest()[:16] == "ca95374756c1fd2f"


SCHEDULE_DOCUMENT = {"model": {"layers": 12}, "schedule": {"kind": "exponential", "p_init": 0.02, "p_final": 0.5}}

# Files of the default dump, then the reports over it, keyed by the file the
# report is written to; these pin every text the CLI formats.
DUMP_OUTPUTS = {
    "attention/manifest.json": "36f447ef5a5a4462",
    "attention/layer_0000.omtn": "205982007b19ad62",
    "attention/layer_0000.ids": "78bb1891bbb08340",
}

REPORT_OUTPUTS = {
    "schedule.csv": "3fcb3f1ddb3bf64d",
    "pca.csv": "14c2d829b46a39c8",
    "retention.csv": "ae53d66466108cd9",
    "recall.json": "95ed0a013f87524a",
    "cosine-av.csv": "336c8ef90c16b5a7",
    # VV has 165,600 pairs, past the default cap, so this pins the sampled path.
    "cosine-vv.csv": "4a6ab96f147c81b1",
    "cost.json": "22b6246990486b8a",
}


def _report_argv(run, reports):
    return {
        "schedule.csv": ["schedule", "--config", str(reports / "schedule.json")],
        "pca.csv": ["analyze", "--metric", "pca", "--embeddings", str(run / "embeddings.omtn")],
        "retention.csv": ["analyze", "--metric", "retention", "--trace", str(run / "trace.jsonl")],
        "recall.json": ["analyze", "--metric", "recall", "--attention", str(run / "attention/layer_0010.omtn")],
        "cosine-av.csv": [
            "analyze", "--metric", "cosine", "--pair", "AV", "--seed", "3",
            "--embeddings", str(run / "embeddings.omtn"), "--tokens", str(run / "tokens.jsonl"),
        ],
        "cosine-vv.csv": [
            "analyze", "--metric", "cosine", "--pair", "VV", "--seed", "3",
            "--embeddings", str(run / "embeddings.omtn"), "--tokens", str(run / "tokens.jsonl"),
        ],
        "cost.json": ["cost", "--trace", str(run / "trace.jsonl"), "--d", "32"],
    }


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def test_dump_and_report_outputs_are_pinned(capsys, tmp_path):
    run, reports = tmp_path / "run", tmp_path / "reports"
    assert _trace_digest(capsys, ["simulate", "--out", str(run), "--dump-attention"]) == GOLDEN["default"][1]
    for name, prefix in DUMP_OUTPUTS.items():
        assert _sha(run / name) == prefix, name
    reports.mkdir()
    (reports / "schedule.json").write_text(json.dumps(SCHEDULE_DOCUMENT))
    for name, argv in _report_argv(run, reports).items():
        assert main([*argv, "--out", str(reports / name)]) == 0, name
        assert _sha(reports / name) == REPORT_OUTPUTS[name], name
