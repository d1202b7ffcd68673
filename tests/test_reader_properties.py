"""Mutated inputs to the CLI's file readers end in a documented exit, never a traceback.

Covers the three readers with no other property test: ``tokens.jsonl``
through ``analyze --metric cosine``, an attention dump's ``manifest.json``
through ``simulate --inject``, and ``--config`` files. Each example starts
from a valid file and makes one to four edits: a JSON string, number or
literal becomes a hostile value (deep nesting, an overflowing or non-finite
number, a wrong type), or a short byte span becomes JSON syntax or a byte
that is not UTF-8. Some mutants stay valid, so exit 0 is allowed; what no
mutant may do is raise out of ``main``.
"""

import json
import re
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from avprune.cli import main
from tests.test_cli import SMALL_CONFIG

DOCUMENTED_EXITS = {0, 1, 3, 4}
SCALAR = re.compile(rb'"(?:[^"\\\n]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|true|false|null')
VALUES = [b"[" * 5000, b"1e999", b"NaN", b"-1", b"9" * 25, b"null", b"[]", b"{}", b'"audio"', b'""']
FRAGMENTS = [b"", b"{", b"}", b"[", b"]", b",", b":", b'"', b"\n", b"\xff", b"\x00"]
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def mutants(draw, valid: bytes) -> bytes:
    """``valid`` after one to four edits, each of a JSON scalar or of a span of up to 16 bytes."""
    data = bytes(valid)
    for _ in range(draw(st.integers(1, 4))):
        scalars = [m.span() for m in SCALAR.finditer(data)]
        if scalars and draw(st.booleans()):
            (at, end), new = draw(st.sampled_from(scalars)), draw(st.sampled_from(VALUES))
        else:
            at = draw(st.integers(0, len(data)))
            end, new = draw(st.integers(at, min(len(data), at + 16))), draw(st.sampled_from(FRAGMENTS))
        data = data[:at] + new + data[end:]
    return data


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A small simulate run with its attention dump, plus the config file it ran under."""
    root = tmp_path_factory.mktemp("readers")
    config = root / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert main(["simulate", "--config", str(config), "--out", str(root / "run"), "--dump-attention"]) == 0
    return root


def _valid(run, name: str) -> bytes:
    return (run / name).read_bytes()


@PROPERTY
@given(data=st.data())
def test_mutated_tokens_jsonl(run, data):
    tokens = run / "mutant_tokens.jsonl"
    tokens.write_bytes(data.draw(mutants(_valid(run, "run/tokens.jsonl"))))
    argv = ["analyze", "--metric", "cosine", "--embeddings", str(run / "run/embeddings.omtn"),
            "--tokens", str(tokens), "--out", str(run / "cosine.csv")]
    assert main(argv) in DOCUMENTED_EXITS


@PROPERTY
@given(data=st.data())
def test_mutated_manifest_json(run, data):
    dump = run / "mutant_dump"
    if not dump.exists():
        shutil.copytree(run / "run/attention", dump)
    (dump / "manifest.json").write_bytes(data.draw(mutants(_valid(run, "run/attention/manifest.json"))))
    argv = ["simulate", "--config", str(run / "config.json"), "--inject", str(dump), "--out", str(run / "replay")]
    assert main(argv) in DOCUMENTED_EXITS


@PROPERTY
@given(data=st.data())
def test_mutated_config_file(run, data):
    config = run / "mutant_config.json"
    config.write_bytes(data.draw(mutants(_valid(run, "config.json"))))
    # --layers bounds the work whatever the mutant sets, yet the file's own
    # model.layers is still read and type-checked before the flag replaces it.
    argv = ["schedule", "--config", str(config), "--layers", "4", "--out", str(run / "schedule.csv")]
    assert main(argv) in DOCUMENTED_EXITS
