"""Binary tensor files, id sidecars, and trace JSONL serialization.

Tensor format, bit-exact: magic "OMTN", then u32-LE version (=1), u32-LE
rank, one u64-LE per dimension, then the data as little-endian IEEE-754
float32 in row-major order. Id sidecars are plain text, one decimal token id
per line in column order. Every file the package writes goes through
``write_artifact``, so it appears whole or not at all.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .trace import LayerRecord, PruneTrace, RecordError

MAGIC = b"OMTN"
VERSION = 1
# Sidecar byte kinds: 0 for any byte an id line cannot hold, 1 for a digit, 2 for a newline.
_ID_BYTE_KIND = np.zeros(256, dtype=np.int8)
_ID_BYTE_KIND[ord("0") : ord("9") + 1] = 1
_ID_BYTE_KIND[ord("\n")] = 2


def write_artifact(path, data: str | bytes) -> None:
    """Write ``data`` (``str`` as UTF-8) to ``path`` through a sibling ``<name>.tmp`` and a rename.

    A reader sees the old file or the new one, never a part. If the write or
    the rename fails, the temp file is removed and the error re-raised; an
    ``OSError`` then names ``path``, not the temp file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.strerror:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def write_tensor(path, array) -> None:
    arr = np.ascontiguousarray(array, dtype="<f4")
    header = MAGIC + struct.pack(f"<II{arr.ndim}Q", VERSION, arr.ndim, *arr.shape)
    write_artifact(path, header + arr.tobytes(order="C"))


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def read_tensor(path) -> np.ndarray:
    data = _read(path)
    if data[:4] != MAGIC:
        raise SchemaError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 12:
        raise SchemaError(f"{path}: truncated header")
    version, rank = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise SchemaError(f"{path}: unsupported version {version}")
    dims_end = 12 + 8 * rank
    if len(data) < dims_end:
        raise SchemaError(f"{path}: truncated dimension list")
    shape = struct.unpack_from(f"<{rank}Q", data, 12)
    count = math.prod(shape)  # Python ints: a huge shape cannot wrap to a small count
    if len(data) != dims_end + 4 * count:
        raise SchemaError(f"{path}: payload size does not match shape {shape}")
    try:
        return np.frombuffer(data, dtype="<f4", offset=dims_end).reshape(shape).copy()
    except ValueError as exc:  # a rank or size past numpy's limits
        raise SchemaError(f"{path}: cannot hold shape {shape} ({exc})") from None


def write_ids(path, ids) -> None:
    write_artifact(path, "".join([f"{i}\n" for i in np.asarray(ids).tolist()]))


def read_ids(path) -> np.ndarray:
    """Int64 ids of a sidecar whose every line is the decimal form of one id; else SchemaError.

    A line is a decimal id without sign, space or leading zero, of at most 19
    digits (enough for 2**63 - 1); only the part after the final newline may
    be empty.
    """
    try:
        return _parse_ids(_read(path))
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def read_id_sidecars(paths) -> list[np.ndarray] | None:
    """``read_ids`` of every path in one parse, or None if a file cannot be read or is not as written.

    ``write_ids`` ends every non-empty sidecar in a newline, so the joined
    bytes of such files hold exactly their lines, in order, and pass the
    grammar only if each file does. None hands the files to ``read_ids``,
    one by one, for its errors.
    """
    try:
        blobs = [_read(path) for path in paths]
        if any(blob[-1:] not in (b"", b"\n") for blob in blobs):
            return None
        ids = _parse_ids(b"".join(blobs))
    except (OSError, SchemaError):
        return None
    return np.split(ids, np.cumsum([blob.count(b"\n") for blob in blobs])[:-1])


def _parse_ids(data: bytes) -> np.ndarray:
    """The ids of sidecar bytes under ``read_ids``'s grammar; a break is a SchemaError without the path."""
    raw = np.frombuffer(data, dtype=np.uint8)
    kind = _ID_BYTE_KIND.take(raw)
    # Newline positions bound the lines; -1 and len(data) close the first and the last.
    bounds = np.concatenate(([-1], np.flatnonzero(kind == 2), [raw.size]))
    width = np.diff(bounds) - 1
    if (
        not kind.all()
        or width[:-1].min(initial=1) == 0
        or width.max() > 19
        or np.any(raw[bounds[:-1][width > 1] + 1] == ord("0"))
    ):
        raise SchemaError("malformed id list (each line must be one decimal id)")
    # At most 19 digits a line, so every id fits in uint64 and the bound check sees it whole.
    ids = np.fromstring(data, dtype=np.uint64, sep="\n")
    if ids.max(initial=0) >= 2**63:
        raise SchemaError("token ids must lie in [0, 2**63)")
    return ids.astype(np.int64)


def write_trace_jsonl(path, trace: PruneTrace, config_digest: str) -> None:
    """Trace lines plus a final summary object carrying the digests."""
    summary = json.dumps(
        {"config_digest": config_digest, "digest": trace.digest},
        sort_keys=True,
        separators=(",", ":"),
    )
    write_artifact(path, "\n".join([*trace.canonical_lines(), summary]) + "\n")


def read_trace_jsonl(path) -> tuple[PruneTrace, dict]:
    """Parse a trace file; returns (trace, summary). Verifies the digest."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        numbers = [n for n, ln in enumerate(lines, 1) if ln.strip()]  # the file line of each object
        objs = [json.loads(lines[n - 1]) for n in numbers]
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, or nesting too deep
        raise SchemaError(f"{path}: not UTF-8 JSON lines ({exc})") from None
    if len(objs) < 2:
        raise SchemaError(f"{path}: expected layer records plus a summary line")
    *records, summary = objs
    if not isinstance(summary, dict) or not isinstance(summary.get("digest"), str):
        raise SchemaError(f"{path}: final line is not a summary object")
    layers = []
    for number, obj in zip(numbers, records):
        try:
            layers.append(LayerRecord.from_json_obj(obj))
        except SchemaError as exc:
            raise SchemaError(f"{path}: line {number}: {exc}") from None
    try:
        trace = PruneTrace(layers=tuple(layers))
    except RecordError as exc:
        raise SchemaError(f"{path}: line {numbers[exc.index]}: {exc.rule}") from None
    if trace.digest != summary["digest"]:
        raise SchemaError(f"{path}: stored digest does not match the records")
    return trace, summary
