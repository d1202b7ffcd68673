"""Binary tensor files, id sidecars, and trace JSONL serialization.

Tensor format, bit-exact: magic "OMTN", then u32-LE version (=1), u32-LE
rank, one u64-LE per dimension, then the data as little-endian IEEE-754
float32 in row-major order. Id sidecars: magic "OMID", u32-LE version (=1),
then one int64-LE token id per column in column order; the 8-byte header
keeps the ids aligned. Every file the package writes goes through
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
_ID_HEADER = b"OMID" + struct.pack("<I", VERSION)


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
    arr = np.asarray(array, dtype="<f4")
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
    write_artifact(path, _ID_HEADER + np.asarray(ids, dtype="<i8").tobytes())


def read_ids(path) -> np.ndarray:
    """The int64 ids of a sidecar; a SchemaError naming the file if it is not one as written."""
    data = _read(path)
    if data[:8] != _ID_HEADER:
        raise SchemaError(f"{path}: not an OMID version 1 id sidecar (header {data[:8]!r})")
    if len(data) % 8:
        raise SchemaError(f"{path}: payload is not a whole number of int64 ids")
    ids = np.frombuffer(data, dtype="<i8", offset=8).astype(np.int64)
    if ids.min(initial=0) < 0:
        raise SchemaError(f"{path}: token ids must lie in [0, 2**63)")
    return ids


def write_trace_jsonl(path, trace: PruneTrace, config_digest: str) -> None:
    """Trace lines plus a final summary object carrying the digests."""
    summary = json.dumps(
        {"config_digest": config_digest, "digest": trace.digest},
        sort_keys=True,
        separators=(",", ":"),
    )
    write_artifact(path, "\n".join([*trace.lines, summary]) + "\n")


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
