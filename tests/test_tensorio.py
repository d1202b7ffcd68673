import ast
import hashlib
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from avprune import LayerRecord, PruneTrace, SchemaError, Selector
from avprune import tensorio
from avprune.config import ExperimentConfig


def test_round_trip_exact(tmp_path):
    path = tmp_path / "t.omtn"
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 7.0
    tensorio.write_tensor(path, arr)
    back = tensorio.read_tensor(path)
    assert back.shape == (2, 3, 4)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr.astype(np.float32))


@pytest.mark.parametrize(
    "arr", [np.float32(3.0), np.arange(12.0).reshape(3, 4).T], ids=["rank-0", "transposed-float64"]
)
def test_round_trip_keeps_rank_and_order(tmp_path, arr):
    path = tmp_path / "t.omtn"
    tensorio.write_tensor(path, arr)
    back = tensorio.read_tensor(path)
    assert back.shape == np.shape(arr)
    assert np.array_equal(back, arr)


def test_header_layout(tmp_path):
    path = tmp_path / "t.omtn"
    tensorio.write_tensor(path, np.zeros((2, 5), dtype=np.float32))
    raw = path.read_bytes()
    assert raw[:4] == b"OMTN"
    version, rank = struct.unpack_from("<II", raw, 4)
    assert version == 1 and rank == 2
    dims = struct.unpack_from("<2Q", raw, 12)
    assert dims == (2, 5)
    assert len(raw) == 12 + 16 + 4 * 10


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.omtn"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(SchemaError):
        tensorio.read_tensor(path)


def test_wrong_version(tmp_path):
    path = tmp_path / "v2.omtn"
    path.write_bytes(b"OMTN" + struct.pack("<II", 2, 1) + struct.pack("<Q", 0))
    with pytest.raises(SchemaError):
        tensorio.read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.omtn"
    tensorio.write_tensor(path, np.zeros(4, dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(SchemaError):
        tensorio.read_tensor(path)


def test_ids_round_trip(tmp_path):
    path = tmp_path / "cols.ids"
    tensorio.write_ids(path, [3, 1, 41, 0])
    ids = tensorio.read_ids(path)
    assert ids.dtype == np.int64 and ids.tolist() == [3, 1, 41, 0]
    tensorio.write_ids(path, np.array([2**63 - 1, 5], dtype=np.int64))
    assert path.read_bytes() == b"OMID" + struct.pack("<Iqq", 1, 2**63 - 1, 5)
    assert tensorio.read_ids(path).tolist() == [2**63 - 1, 5]
    tensorio.write_ids(path, [])
    assert path.read_bytes() == b"OMID\x01\x00\x00\x00"
    empty = tensorio.read_ids(path)
    assert empty.dtype == np.int64 and empty.shape == (0,)


def _trace():
    recs = (
        LayerRecord(layer=0, p_l=0.25, k_l=1, pruned_ids=(7,), n_audio=2, n_video=2, n_text=1, selector="plain"),
        LayerRecord(layer=1, p_l=0.0, k_l=0, pruned_ids=(), n_audio=2, n_video=1, n_text=1, selector="tds"),
    )
    return PruneTrace(layers=recs)


def test_trace_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    trace = _trace()
    tensorio.write_trace_jsonl(path, trace, config_digest="abc123")
    back, summary = tensorio.read_trace_jsonl(path)
    assert back == trace
    assert summary["digest"] == trace.digest
    assert summary["config_digest"] == "abc123"


def test_trace_jsonl_digest_mismatch(tmp_path):
    path = tmp_path / "trace.jsonl"
    tensorio.write_trace_jsonl(path, _trace(), config_digest="abc123")
    tampered = path.read_text().replace('"pruned_ids":[7]', '"pruned_ids":[8]')
    path.write_text(tampered)
    with pytest.raises(SchemaError):
        tensorio.read_trace_jsonl(path)


def test_trace_jsonl_requires_summary(tmp_path):
    path = tmp_path / "trace.jsonl"
    lines = _trace().lines
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError):
        tensorio.read_trace_jsonl(path)


def test_huge_shape_does_not_wrap(tmp_path):
    # 2**62 * 4 elements wrap to 0 in int64; the header must still be refused.
    path = tmp_path / "huge.omtn"
    path.write_bytes(b"OMTN" + struct.pack("<II", 1, 2) + struct.pack("<2Q", 2**62, 4))
    with pytest.raises(SchemaError, match="huge.omtn"):
        tensorio.read_tensor(path)


def test_rank_beyond_numpy_is_schema_error(tmp_path):
    path = tmp_path / "deep.omtn"
    path.write_bytes(b"OMTN" + struct.pack("<II", 1, 65) + struct.pack("<65Q", *[1] * 65) + b"\x00" * 4)
    with pytest.raises(SchemaError, match="deep.omtn"):
        tensorio.read_tensor(path)


def test_ids_out_of_int64_range(tmp_path):
    # An id of 2**63 or more, written as u64, reads as a negative int64.
    path = tmp_path / "cols.ids"
    for ids in ([2**63], [2**64 - 1], [4, 2**63]):
        path.write_bytes(b"OMID" + struct.pack(f"<I{len(ids)}Q", 1, *ids))
        with pytest.raises(SchemaError, match=r"cols.ids: token ids must lie in \[0, 2\*\*63\)"):
            tensorio.read_ids(path)


# Property tests: any file content gives a valid result or SchemaError, never
# another exception. Derandomized so the suite reads the same on every run;
# each test rewrites its one file per example, so the shared tmp_path is safe.

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=8), kids, max_size=3),
    max_leaves=6,
)

# Values of the right JSON type for each trace key that may still break a trace rule.
RULE_VALUES = {
    "layer": st.integers(-1, 3),
    "k_l": st.integers(-1, 3),
    "n_audio": st.integers(-5, 3),
    "n_video": st.integers(-5, 3),
    "n_text": st.integers(-1, 2),
    "p_l": st.floats() | st.integers(-1, 2),
    "pruned_ids": st.lists(st.integers(-2, 8), max_size=3),
    "selector": st.sampled_from(["plain", "tds", "random", "bogus"]),
}


@st.composite
def tensor_files(draw):
    # Powers of two make products that wrap around in fixed-width integers.
    wide = st.integers(0, 2**64 - 1) | st.sampled_from([2**32, 2**62, 2**63])
    dims = draw(st.lists(st.integers(0, 4) | wide, max_size=4))
    rank = draw(st.just(len(dims)) | st.integers(0, 2**32 - 1))
    version = draw(st.sampled_from([1, 1, 2]))
    header = tensorio.MAGIC + struct.pack("<II", version, rank) + struct.pack(f"<{len(dims)}Q", *dims)
    count = math.prod(dims)
    exact = count <= 16 and draw(st.booleans())
    payload = draw(st.binary(min_size=4 * count, max_size=4 * count) if exact else st.binary(max_size=40))
    blob = header + payload
    return blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


def _read_or_schema_error(read, path):
    try:
        return read(path)
    except SchemaError:
        return None


@FUZZ
@given(blob=tensor_files() | st.binary(max_size=64))
def test_read_tensor_fuzz(tmp_path, blob):
    path = tmp_path / "fuzz.omtn"
    path.write_bytes(blob)
    out = _read_or_schema_error(tensorio.read_tensor, path)
    if out is not None:
        rank = struct.unpack_from("<I", blob, 8)[0]
        assert out.dtype == np.float32
        assert out.shape == struct.unpack_from(f"<{rank}Q", blob, 12)


HEADER = b"OMID" + struct.pack("<I", 1)


def sidecar_ids(blob: bytes) -> list[int] | None:
    """The ids a sidecar holds by its format, unpacked one by one, or None if it is malformed."""
    if blob[:8] != HEADER or len(blob) % 8:
        return None
    ids = [struct.unpack_from("<q", blob, at)[0] for at in range(8, len(blob), 8)]
    return ids if min(ids, default=0) >= 0 else None


def assert_reads_as_the_format(path, blob) -> bool:
    """``read_ids`` gives exactly the payload's int64 ids, or a SchemaError naming the file; True if it read."""
    path.write_bytes(blob)
    expected = sidecar_ids(blob)
    if expected is None:
        with pytest.raises(SchemaError, match=re.escape(str(path))):
            tensorio.read_ids(path)
        return False
    out = tensorio.read_ids(path)
    assert out.dtype == np.int64 and out.ndim == 1
    assert out.tolist() == expected == np.frombuffer(blob[8:], "<i8").tolist()
    return True


# Well-formed headers over any payload, ids near the sign bit, and other versions.
SIDECARS = st.builds(
    lambda head, ids, tail: head + struct.pack(f"<{len(ids)}q", *ids) + tail,
    st.just(HEADER) | st.builds(lambda v: b"OMID" + struct.pack("<I", v), st.integers(0, 2**32 - 1)),
    st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(2**63 - 2, 2**63 - 1) | st.integers(-2, 2), max_size=5),
    st.binary(max_size=9),
)


@FUZZ
@given(blob=SIDECARS | st.binary(max_size=64))
def test_read_ids_fuzz(tmp_path, blob):
    assert_reads_as_the_format(tmp_path / "fuzz.ids", blob)


def _flip(at, mask=0xFF):
    """Break byte ``at`` (counted from the end if negative, or ``at(real)``) by XOR with ``mask``."""

    def mutate(real: bytes) -> bytes:
        i = (at(real) if callable(at) else at) % len(real)
        return real[:i] + bytes([real[i] ^ mask]) + real[i + 1 :]

    return mutate


def _middle_byte(real: bytes) -> int:
    return len(real) // 2


def _middle_id_sign_byte(real: bytes) -> int:
    return 8 + 8 * ((len(real) - 8) // 16) + 7


# Mutants of a real sidecar: (name, mutation, reads). A mutant that does not
# read must raise a SchemaError naming the file; one that reads must give
# exactly its payload's int64 ids.
SIDECAR_MUTANTS = [
    *[(f"cut-{n}", lambda real, n=n: real[:n], n == 8) for n in range(9)],  # a short header, then no ids
    *[(f"append-{n}", lambda real, n=n: real + bytes(range(1, n + 1)), False) for n in range(1, 8)],  # a partial id
    *[(f"flip-header-{i}", _flip(i), False) for i in range(8)],
    ("flip-first-id-low-byte", _flip(8), True),
    ("flip-first-id-sign-byte", _flip(15), False),
    ("flip-middle-byte", _flip(_middle_byte), True),  # byte 4 of an id: its value moves, its sign does not
    ("flip-last-id-sign-byte", _flip(-1), False),
    ("bad-magic", lambda real: b"OMTN" + real[4:], False),
    ("version-2", lambda real: real[:4] + struct.pack("<I", 2) + real[8:], False),
    ("version-max", lambda real: real[:4] + b"\xff" * 4 + real[8:], False),
    # The sign bit set in the first, a middle and the last id.
    ("sign-first-id", _flip(15, 0x80), False),
    ("sign-middle-id", _flip(_middle_id_sign_byte, 0x80), False),
    ("sign-last-id", _flip(-1, 0x80), False),
]


@pytest.fixture(scope="module")
def real_sidecar(tmp_path_factory):
    """Layer 0's sidecar of a chunks=4 dump, which holds every audiovisual id."""
    tokens = ExperimentConfig.resolve({}, {"sequence.chunks": 4}).build_sequence().tokens
    path = tmp_path_factory.mktemp("sidecar") / "real.ids"
    tensorio.write_ids(path, tokens.id[tokens.is_audiovisual])
    return path.read_bytes()


def test_read_ids_on_a_real_sidecar(tmp_path, real_sidecar):
    assert len(real_sidecar) == 8 + 8 * 1352
    assert assert_reads_as_the_format(tmp_path / "real.ids", real_sidecar)


@pytest.mark.parametrize(("mutate", "reads"), [m[1:] for m in SIDECAR_MUTANTS], ids=[m[0] for m in SIDECAR_MUTANTS])
def test_read_ids_on_mutants_of_a_real_sidecar(tmp_path, real_sidecar, mutate, reads):
    blob = mutate(real_sidecar)
    assert blob != real_sidecar or reads
    assert assert_reads_as_the_format(tmp_path / "mutant.ids", blob) == reads


@st.composite
def trace_files(draw):
    records = [json.loads(line) for line in _trace().lines]
    for _ in range(draw(st.integers(0, 2))):
        rec = records[draw(st.integers(0, len(records) - 1))]
        key = draw(st.sampled_from(sorted(rec)))
        rec[key] = draw(RULE_VALUES[key] | JSON_VALUES)
    lines = [json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in records]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]
    summary = draw(st.just({"config_digest": "c", "digest": digest}) | JSON_VALUES)
    lines.append(json.dumps(summary))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=8)))
    return "\n".join(lines).encode("utf-8", "surrogatepass")


@FUZZ
@given(blob=trace_files() | st.binary(max_size=64))
def test_read_trace_jsonl_fuzz(tmp_path, blob):
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(blob)
    out = _read_or_schema_error(tensorio.read_trace_jsonl, path)
    if out is not None:
        trace, summary = out
        assert isinstance(trace, PruneTrace) and summary["digest"] == trace.digest
        pruned = [i for rec in trace.layers for i in rec.pruned_ids]
        assert len(set(pruned)) == len(pruned) and min(pruned, default=0) >= 0
        for index, rec in enumerate(trace.layers):
            assert rec.layer == index and rec.selector in {s.value for s in Selector}
            assert min(rec.k_l, rec.n_audio, rec.n_video, rec.n_text) >= 0
            assert math.isfinite(rec.p_l) and 0.0 <= rec.p_l < 1.0
            assert len(rec.pruned_ids) == rec.k_l <= rec.n_audio + rec.n_video


@pytest.mark.parametrize("data", ["text é\n", b"\x00OMTN\xff"], ids=["str", "bytes"])
def test_write_artifact_round_trip(tmp_path, data):
    path = tmp_path / "out.bin"
    path.write_bytes(b"an older, longer file")
    tensorio.write_artifact(path, data)
    assert path.read_bytes() == (data.encode("utf-8") if isinstance(data, str) else data)
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_failed_write_artifact_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"old bytes\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(tensorio.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        tensorio.write_trace_jsonl(path, _trace(), "cfg")
    assert path.read_bytes() == b"old bytes\n"
    assert list(tmp_path.glob("*.tmp")) == []


def _is_write_mode(mode) -> bool:
    """A mode the scan cannot read counts as a write."""
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(set(mode.value) & set("wax+"))


def _write_calls(node, function=None):
    """(function, line, call) for each call under ``node`` that can write a file."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _write_calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            # Builtin open(path, mode), or Path.open(mode) / os.open(path, flags).
            modes = [kw.value for kw in child.keywords if kw.arg == "mode"]
            modes += child.args[1:2] if isinstance(func, ast.Name) else child.args[:1]
            if name in ("write_text", "write_bytes") or (name == "open" and any(map(_is_write_mode, modes))):
                found.append((function, child.lineno, name))
        found += _write_calls(child, function)
    return found


def test_write_artifact_is_the_only_write_path():
    package = Path(tensorio.__file__).parent
    offenders = [
        f"{source.name}:{line}: {call}( in {function}"
        for source in sorted(package.glob("*.py"))
        for function, line, call in _write_calls(ast.parse(source.read_text(encoding="utf-8")))
        if (source.name, function) != ("tensorio.py", "write_artifact")
    ]
    assert offenders == []
    scanned = _write_calls(ast.parse(Path(tensorio.__file__).read_text(encoding="utf-8")))
    assert [(f, c) for f, _, c in scanned] == [("write_artifact", "open")]
