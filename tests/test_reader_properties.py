"""Mutated inputs to the CLI's file readers end in a documented exit, never a traceback.

Covers the three readers with no other property test: ``tokens.jsonl``
through ``analyze --metric cosine``, an attention dump's ``manifest.json``
through ``simulate --inject``, and ``--config`` files. Each example starts
from a valid file and makes one to four edits: a JSON string, number or
literal becomes a hostile value (deep nesting, an overflowing or non-finite
number, a wrong type), or a short byte span becomes JSON syntax or a byte
that is not UTF-8. Some mutants stay valid, so exit 0 is allowed; what no
mutant may do is raise out of ``main``. The ``tokens.jsonl`` reader, which
takes lines in the writer's own form through a regex, is also checked
against a plain ``json.loads`` per line reader, on the mutants and on
hand-picked lines.
"""

import json
import re
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from avprune import SchemaError, cli
from avprune.cli import main
from avprune.sequence import Modality
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


def json_token_modalities(path) -> list[Modality]:
    """Reference reader of ``tokens.jsonl``: ``json.loads`` on every line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except ValueError as exc:  # bad UTF-8
        raise SchemaError(f"{path}: not UTF-8 JSON lines ({exc})") from None
    by_value, modalities = {m.value: m for m in Modality}, []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"{path}: line {number}: not JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise SchemaError(f"{path}: line {number}: token record is not a JSON object")
        if "modality" in obj:
            value = obj["modality"]
            if not (isinstance(value, str) and value in by_value):
                raise SchemaError(f"{path}: line {number}: unknown modality {value!r}")
            modalities.append(by_value[value])
        elif "config_digest" not in obj:
            raise SchemaError(f"{path}: line {number}: token record without a modality")
    return modalities


def read_outcome(reader, path):
    """The modality list a reader returns, or the message of the SchemaError it raises."""
    try:
        return reader(path)
    except SchemaError as exc:
        return f"SchemaError: {exc}"


def assert_readers_agree(path):
    assert read_outcome(cli._read_token_modalities, path) == read_outcome(json_token_modalities, path)


@PROPERTY
@given(data=st.data())
def test_mutated_tokens_jsonl_reads_as_json_per_line(run, data):
    tokens = run / "mutant_tokens_differential.jsonl"
    tokens.write_bytes(data.draw(mutants(_valid(run, "run/tokens.jsonl"))))
    assert_readers_agree(tokens)


WRITER_LINE = '{"chunk_index": 3, "id": 17, "modality": "video", "original_position": 17}'
EDGE_LINES = [
    WRITER_LINE,
    WRITER_LINE.replace('"id": 17', '"id": 01'),
    WRITER_LINE.replace('"id": 17', '"id": -0'),
    WRITER_LINE.replace('"id": 17', '"id": 1.0'),
    WRITER_LINE.replace('"id": 17', '"id": 1e2'),
    WRITER_LINE.replace('"id": 17', '"id": \u0661'),
    WRITER_LINE.replace('"id": 17', '"id": 9999999999999999999'),  # the regex's 19 digits
    WRITER_LINE.replace('"id": 17', '"id": 10000000000000000000'),
    WRITER_LINE.replace('"id": 17', '"id": ' + "9" * 5000),  # past int()'s digit limit
    WRITER_LINE.replace('"id": 17', '"id": null'),
    WRITER_LINE.replace('"chunk_index": 3', '"chunk_index": null'),
    WRITER_LINE.replace('"chunk_index": 3', '"chunk_index": \u0663'),
    WRITER_LINE.replace('"original_position": 17', '"original_position": 017'),
    WRITER_LINE.replace('"video"', '"vide\\u006f"'),
    WRITER_LINE.replace('"video"', '"speech"'),
    WRITER_LINE.replace('"video"', '"VIDEO"'),
    WRITER_LINE.replace('"video"', '"query_text"'),
    WRITER_LINE.replace('"id": 17', '"id":  17'),
    WRITER_LINE.replace('"id": 17', '"id":17'),
    " " + WRITER_LINE,
    WRITER_LINE + " ",
    WRITER_LINE + "\r",
    WRITER_LINE[:-1] + ', "id": 18}',  # a duplicate key
    WRITER_LINE + WRITER_LINE,
    WRITER_LINE[:-1],
    '{"config_digest": "0123456789abcdef"}',
]


@pytest.mark.parametrize("ending", ["\n", "\r\n", ""], ids=["lf", "crlf", "no-final-newline"])
@pytest.mark.parametrize("line", EDGE_LINES, ids=range(len(EDGE_LINES)))
def test_edge_lines_read_as_json_per_line(tmp_path, line, ending):
    tokens = tmp_path / "tokens.jsonl"
    header = '{"config_digest": "0123456789abcdef"}'
    text = "\n".join([header, WRITER_LINE, line, WRITER_LINE.replace('"video"', '"audio"'), line])
    tokens.write_bytes((text.replace("\n", ending or "\n") + ending).encode("utf-8"))
    assert_readers_agree(tokens)


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
