"""Bit-exact serialization: caches and evaluation reports.

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

``_framed`` writes the frame (magic, u16 version, body, crc32) and
``_check_frame`` checks its head. Reports are JSON plus a fixed-column
CSV, and score dumps are standard ``.npy`` files; identical inputs give
identical bytes.
Every file the package reads or writes goes through ``read_file`` or
``write_file``, the one place an ``OSError`` becomes an ``IoError``.
"""
from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np

from .composer import CompressedCache
from .errors import KvcError
from .evaluator import CurvePoint, EvalReport

MAGIC_CACHE = b"KVCF"
CACHE_VERSION = 2

CSV_COLUMNS = tuple(f.name for f in fields(CurvePoint))


class CacheFormatError(KvcError):
    """A malformed cache file; the message names the failure and its byte offset."""


class IoError(KvcError):
    pass


def read_file(path: str | Path, what: str) -> bytes:
    """The bytes of ``path``; an OS error becomes an ``IoError`` naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {what} from {path}: {exc}") from exc


def write_file(path: str | Path, data: bytes | str, what: str) -> int:
    """Write ``data`` (text as UTF-8) into ``path``'s existing directory; an
    OS error becomes an ``IoError`` naming the path. Returns the byte count."""
    data = data.encode() if isinstance(data, str) else data
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise IoError(f"cannot write {what} to {path}: {exc}") from exc
    return len(data)


def _framed(*parts: bytes) -> bytes:
    """The KVCF frame: magic, u16 version, ``parts``, then a crc32 of all of it."""
    body = b"".join([MAGIC_CACHE, struct.pack("<H", CACHE_VERSION), *parts])
    return body + struct.pack("<I", zlib.crc32(body))


def cache_to_bytes(cache: CompressedCache) -> bytes:
    if not isinstance(cache, CompressedCache):  # a prefill or decoded cache has no provenance
        raise IoError(f"only compressed caches serialize, got {type(cache).__name__}")
    layers = cache.layer_count
    kv_heads, _, head_dim = cache.keys[0].shape
    header = (layers, kv_heads, head_dim, *map(cache.rows, range(layers)), *cache.next_positions)
    parts = [struct.pack(f"<{len(header)}I", *header)]
    parts += [a.astype("<f4").tobytes() for kv in zip(cache.keys, cache.values) for a in kv]
    parts += [p.astype("<u4").tobytes() for p in cache.provenance]
    return _framed(*parts)


def write_cache(cache: CompressedCache, path: str | Path) -> int:
    """Serialize; rewriting the same cache is byte-identical. Returns byte count."""
    return write_file(path, cache_to_bytes(cache), "cache")


def _check_frame(data: bytes, fixed: int) -> None:
    """Check the KVCF magic, version and the ``fixed``-byte header."""
    if len(data) < 4 or data[:4] != MAGIC_CACHE:
        raise CacheFormatError(f"bad magic at byte 0: {data[:4]!r}")
    if len(data) < 6:
        raise CacheFormatError(f"file ends at byte {len(data)} inside the version field")
    (found,) = struct.unpack_from("<H", data, 4)
    if found != CACHE_VERSION:
        raise CacheFormatError(f"unsupported format version {found} at byte 4")
    if len(data) < fixed:
        raise CacheFormatError(f"file ends at byte {len(data)} inside the fixed header")


def _check_length_and_crc(data: bytes, expected: int) -> None:
    """The file is exactly ``expected`` bytes and its trailing crc32 matches."""
    if len(data) < expected:
        raise CacheFormatError(f"expected {expected} bytes, file has {len(data)}")
    if len(data) > expected:
        raise CacheFormatError(f"{len(data) - expected} trailing bytes after byte {expected}")
    (stored_crc,) = struct.unpack_from("<I", data, expected - 4)
    actual_crc = zlib.crc32(data[: expected - 4])
    if stored_crc != actual_crc:
        raise CacheFormatError(
            f"crc mismatch at byte {expected - 4}: "
            f"stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )


def cache_from_bytes(data: bytes) -> CompressedCache:
    _check_frame(data, 18)
    layers, kv_heads, head_dim = struct.unpack_from("<III", data, 6)
    if layers < 1 or kv_heads < 1 or head_dim < 1:
        raise CacheFormatError(
            f"non-positive dimension in header at byte 6: "
            f"layers={layers} kv_heads={kv_heads} head_dim={head_dim}"
        )
    rows_end = 18 + 4 * layers
    tables_end = cache_header_size(layers)
    if len(data) < tables_end:
        raise CacheFormatError(f"file ends at byte {len(data)}, header tables need {tables_end}")
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
            raise CacheFormatError(
                f"next position {next_positions[l]} at byte {rows_end + 4 * l} "
                f"does not follow kept index {int(p.max())} of layer {l}"
            )
    return CompressedCache(keys, values, next_positions, provenance=prov)


def read_cache(path: str | Path) -> CompressedCache:
    return cache_from_bytes(read_file(path, "cache"))


def cache_header_size(layers: int) -> int:
    """Bytes before the payload of a cache file."""
    return 18 + 8 * layers


def write_array(array: np.ndarray, path: str | Path) -> int:
    """Store ``array`` as a standard ``.npy`` file, dtype and shape as they are,
    so ``np.load`` gives it back bit for bit. Returns the byte count."""
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    return write_file(path, buf.getvalue(), "array")


# --- reports ------------------------------------------------------------------


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report, default=vars, sort_keys=True, indent=2) + "\n"


def csv_text(columns, rows) -> str:
    """A header line, then one line per row: strings double-quoted, numbers
    as ``repr`` (which round-trips a float exactly)."""
    lines = [",".join(columns)]
    lines += [",".join(f'"{v}"' if isinstance(v, str) else repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def report_to_csv(report: EvalReport) -> str:
    return csv_text(CSV_COLUMNS, (vars(p).values() for p in report.points))


def write_report(report: EvalReport, out_dir: str | Path) -> dict[str, Path]:
    """Emit report.json and report.csv; identical reports give identical bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"json": out / "report.json", "csv": out / "report.csv"}
    write_file(paths["json"], report_to_json(report), "report")
    write_file(paths["csv"], report_to_csv(report), "report")
    return paths
