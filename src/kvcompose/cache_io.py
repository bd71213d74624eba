"""Bit-exact serialization: caches, tensors, and evaluation reports.

KVCF cache files (all integers little-endian):

    magic   b"KVCF"
    version u16 (2)
    layers  u32
    kv_heads u32
    head_dim u32
    rows    u32 * layers          per-layer slot count
    next    u32 * layers          per-layer next token position, past every kept index
    payload per layer: K then V, float32, row-major (kv_heads, rows, head_dim)
    provenance per layer: u32 * (kv_heads * rows)   original context index
    crc32   u32 over every preceding byte

Tensor files ("KVCT", version 1) hold one named array: dtype byte
(0=f32, 1=u32), ndim byte, dims, payload, crc32. Both formats share one
frame: magic, u16 version, body, crc32. Reports are JSON plus a
fixed-column CSV; identical inputs always produce identical bytes.
"""
from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from .composer import CompressedCache
from .errors import KvcError
from .evaluator import CurvePoint, EvalReport

MAGIC_CACHE = b"KVCF"
MAGIC_TENSOR = b"KVCT"
CACHE_VERSION = 2
TENSOR_VERSION = 1

CSV_COLUMNS = tuple(f.name for f in fields(CurvePoint))


class CacheFormatError(KvcError):
    """Base for malformed cache/tensor files."""


class BadMagicError(CacheFormatError):
    pass


class UnsupportedVersionError(CacheFormatError):
    pass


class TruncatedError(CacheFormatError):
    pass


class TrailingBytesError(CacheFormatError):
    pass


class ChecksumError(CacheFormatError):
    pass


class MalformedHeaderError(CacheFormatError):
    pass


class IoError(KvcError):
    pass


def cache_to_bytes(cache: CompressedCache) -> bytes:
    if not isinstance(cache, CompressedCache):  # a prefill or decoded cache has no provenance
        raise IoError(f"only compressed caches serialize, got {type(cache).__name__}")
    layers = cache.layer_count
    kv_heads, _, head_dim = cache.keys[0].shape
    parts = [
        MAGIC_CACHE,
        struct.pack("<HIII", CACHE_VERSION, layers, kv_heads, head_dim),
        struct.pack(f"<{layers}I", *(cache.rows(l) for l in range(layers))),
        struct.pack(f"<{layers}I", *cache.next_positions),
    ]
    for l in range(layers):
        parts.append(cache.keys[l].astype("<f4").tobytes(order="C"))
        parts.append(cache.values[l].astype("<f4").tobytes(order="C"))
    for l in range(layers):
        parts.append(cache.provenance[l].astype("<u4").tobytes(order="C"))
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def write_cache(cache: CompressedCache, path: str | Path) -> int:
    """Serialize; rewriting the same cache is byte-identical. Returns byte count."""
    data = cache_to_bytes(cache)
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise IoError(f"cannot write cache to {path}: {exc}") from exc
    return len(data)


def _check_frame(data: bytes, magic: bytes, version: int, fixed: int) -> None:
    """Check magic, version and the ``fixed``-byte header."""
    if len(data) < 4 or data[:4] != magic:
        raise BadMagicError(f"bad magic at byte 0: {data[:4]!r}")
    if len(data) < 6:
        raise TruncatedError(f"file ends at byte {len(data)} inside the version field")
    (found,) = struct.unpack_from("<H", data, 4)
    if found != version:
        raise UnsupportedVersionError(f"unsupported format version {found} at byte 4")
    if len(data) < fixed:
        raise TruncatedError(f"file ends at byte {len(data)} inside the fixed header")


def _check_length_and_crc(data: bytes, expected: int) -> None:
    """The file is exactly ``expected`` bytes and its trailing crc32 matches."""
    if len(data) < expected:
        raise TruncatedError(f"expected {expected} bytes, file has {len(data)}")
    if len(data) > expected:
        raise TrailingBytesError(f"expected {expected} bytes, file has {len(data)}")
    (stored_crc,) = struct.unpack_from("<I", data, expected - 4)
    actual_crc = zlib.crc32(data[: expected - 4])
    if stored_crc != actual_crc:
        raise ChecksumError(
            f"crc mismatch at byte {expected - 4}: "
            f"stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )


def cache_from_bytes(data: bytes) -> CompressedCache:
    _check_frame(data, MAGIC_CACHE, CACHE_VERSION, 18)
    layers, kv_heads, head_dim = struct.unpack_from("<III", data, 6)
    if layers < 1 or kv_heads < 1 or head_dim < 1:
        raise MalformedHeaderError(
            f"non-positive dimension in header at byte 6: "
            f"layers={layers} kv_heads={kv_heads} head_dim={head_dim}"
        )
    rows_end = 18 + 4 * layers
    tables_end = cache_header_size(layers)
    if len(data) < tables_end:
        raise TruncatedError(f"file ends at byte {len(data)}, header tables need {tables_end}")
    rows = list(struct.unpack_from(f"<{layers}I", data, 18))
    total_rows = sum(rows)
    payload = total_rows * kv_heads * head_dim * 4 * 2
    _check_length_and_crc(data, tables_end + payload + total_rows * kv_heads * 4 + 4)

    offset = tables_end
    keys, values = [], []
    for n_l in rows:
        count = kv_heads * n_l * head_dim
        kv = np.frombuffer(data, dtype="<f4", count=2 * count, offset=offset)  # K then V
        # checked before the cast, which warns on a NaN; isfinite does not
        finite = np.isfinite(kv)
        if not finite.all():
            raise CacheFormatError(f"non-finite K/V value at byte {offset + 4 * finite.argmin()}")
        offset += count * 8
        keys.append(kv[:count].reshape(kv_heads, n_l, head_dim).astype(np.float64))
        values.append(kv[count:].reshape(kv_heads, n_l, head_dim).astype(np.float64))
    prov = []
    for n_l in rows:
        count = kv_heads * n_l
        p = np.frombuffer(data, dtype="<u4", count=count, offset=offset)
        offset += count * 4
        prov.append(p.reshape(kv_heads, n_l).astype(np.int64))
    next_positions = list(struct.unpack_from(f"<{layers}I", data, rows_end))
    for l, p in enumerate(prov):
        if p.size and next_positions[l] <= p.max():
            raise MalformedHeaderError(
                f"next position {next_positions[l]} at byte {rows_end + 4 * l} "
                f"does not follow kept index {int(p.max())} of layer {l}"
            )
    return CompressedCache(keys, values, next_positions, provenance=prov)


def read_cache(path: str | Path) -> CompressedCache:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read cache from {path}: {exc}") from exc
    return cache_from_bytes(data)


def cache_header_size(layers: int) -> int:
    """Bytes before the payload of a cache file."""
    return 18 + 8 * layers


# --- generic tensors ----------------------------------------------------------

_DTYPES = {0: "<f4", 1: "<u4"}


def write_tensor(array: np.ndarray, path: str | Path) -> int:
    """Store one array as float32 or uint32, shape-tagged and checksummed."""
    if np.issubdtype(array.dtype, np.integer):
        code, payload = 1, array.astype("<u4")
    else:
        code, payload = 0, array.astype("<f4")
    header = (
        MAGIC_TENSOR
        + struct.pack("<HBB", TENSOR_VERSION, code, array.ndim)
        + struct.pack(f"<{array.ndim}I", *array.shape)
    )
    body = header + payload.tobytes(order="C")
    data = body + struct.pack("<I", zlib.crc32(body))
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise IoError(f"cannot write tensor to {path}: {exc}") from exc
    return len(data)


def read_tensor(path: str | Path) -> np.ndarray:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read tensor from {path}: {exc}") from exc
    return tensor_from_bytes(data)


def tensor_from_bytes(data: bytes) -> np.ndarray:
    _check_frame(data, MAGIC_TENSOR, TENSOR_VERSION, 8)
    code, ndim = struct.unpack_from("<BB", data, 6)
    if code not in _DTYPES:
        raise MalformedHeaderError(f"unknown dtype code {code} at byte 6")
    if ndim > 32:
        raise MalformedHeaderError(f"{ndim} dims at byte 7; at most 32 are supported")
    dims_end = 8 + 4 * ndim
    if len(data) < dims_end:
        raise TruncatedError(f"file ends at byte {len(data)}, dims need {dims_end}")
    dims = struct.unpack_from(f"<{ndim}I", data, 8)
    count = math.prod(dims)  # exact: numpy's product wraps at 2**64
    _check_length_and_crc(data, dims_end + count * 4 + 4)
    return np.frombuffer(data, dtype=_DTYPES[code], count=count, offset=dims_end).reshape(dims)


# --- reports ------------------------------------------------------------------


def report_to_json(report: EvalReport) -> str:
    return json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"


def csv_text(columns, rows) -> str:
    """A header line, then one line per row: strings double-quoted, numbers
    as ``repr`` (which round-trips a float exactly)."""
    lines = [",".join(columns)]
    lines += [",".join(f'"{v}"' if isinstance(v, str) else repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def report_to_csv(report: EvalReport) -> str:
    return csv_text(CSV_COLUMNS, (astuple(p) for p in report.points))


def write_report(report: EvalReport, out_dir: str | Path) -> dict[str, Path]:
    """Emit report.json and report.csv; identical reports give identical bytes."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        json_path = out / "report.json"
        csv_path = out / "report.csv"
        json_path.write_text(report_to_json(report))
        csv_path.write_text(report_to_csv(report))
    except OSError as exc:
        raise IoError(f"cannot write report to {out_dir}: {exc}") from exc
    return {"json": json_path, "csv": csv_path}
