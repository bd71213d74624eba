import json
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcompose import cache_io
from kvcompose.cache_io import (
    BadMagicError,
    CacheFormatError,
    ChecksumError,
    IoError,
    MalformedHeaderError,
    TrailingBytesError,
    TruncatedError,
    UnsupportedVersionError,
    cache_from_bytes,
    cache_to_bytes,
    read_cache,
    read_tensor,
    tensor_from_bytes,
    write_cache,
    write_report,
    write_tensor,
)
from kvcompose.composer import CompressedCache, compress
from kvcompose.evaluator import DEFAULT_TOLERANCES, build_report, make_agreement_tasks, sweep
from kvcompose.model import decode_step, prefill
from kvcompose.baselines import Policy
from kvcompose.numerics import SeededRng
from kvcompose.scoring import AggregationChoice, TaskSet

from conftest import random_context


def make_cache(seed, layers=2, kv_heads=2, head_dim=4, rows=(3, 2)) -> CompressedCache:
    rng = SeededRng(seed)
    keys, values, prov = [], [], []
    for n_l in rows:
        count = kv_heads * n_l * head_dim
        keys.append(
            np.float32(rng.uniform_block(count)).astype(np.float64).reshape(kv_heads, n_l, head_dim)
        )
        values.append(
            np.float32(rng.uniform_block(count)).astype(np.float64).reshape(kv_heads, n_l, head_dim)
        )
        prov.append(
            np.asarray(
                [[rng.randint(max(n_l * 2, 1)) for _ in range(n_l)] for _ in range(kv_heads)],
                dtype=np.int64,
            )
        )
    return CompressedCache(
        keys=keys,
        values=values,
        next_positions=[2 * max(rows)] * layers,  # past every provenance drawn above
        provenance=prov,
    )


class TestWriteCache:
    def test_empty_layer_valid(self, tmp_path):
        cache = make_cache(1, rows=(0, 2))
        path = tmp_path / "c.kvcf"
        write_cache(cache, path)
        back = read_cache(path)
        assert back.rows(0) == 0 and back.rows(1) == 2

    def test_roundtrip_field_for_field(self, tmp_path):
        cache = make_cache(2)
        path = tmp_path / "c.kvcf"
        write_cache(cache, path)
        back = read_cache(path)
        for layer in range(2):
            assert np.array_equal(back.keys[layer], cache.keys[layer])
            assert np.array_equal(back.values[layer], cache.values[layer])
            assert np.array_equal(back.provenance[layer], cache.provenance[layer])

    def test_payload_size_arithmetic(self):
        cache = make_cache(3, layers=1, kv_heads=1, head_dim=4, rows=(2,))
        data = cache_to_bytes(cache)
        header = 18 + 4 + 4  # fixed fields + one row count + one next position
        payload = 2 * (1 * 2 * 4) * 4  # K and V, float32
        provenance = 1 * 2 * 4
        assert payload == 64
        assert len(data) == header + payload + provenance + 4

    def test_rewrite_is_byte_identical(self, tmp_path):
        cache = make_cache(4)
        a, b = tmp_path / "a.kvcf", tmp_path / "b.kvcf"
        write_cache(cache, a)
        write_cache(cache, b)
        assert a.read_bytes() == b.read_bytes()

    def test_io_error_names_path(self, tmp_path):
        cache = make_cache(5)
        with pytest.raises(IoError, match="no/such"):
            write_cache(cache, tmp_path / "no" / "such" / "dir.kvcf")

    @pytest.mark.parametrize("kind", ["prefill", "decoded"])
    def test_only_compressed_caches_serialize(self, tiny_model, tmp_path, kind):
        # a prefill cache, or a compressed one after a decode step, holds rows
        # with no provenance: writing it raises IoError and creates no file,
        # while the compressed cache decoded from still round-trips exactly
        context = random_context(30, 12)
        ts = TaskSet(mode="task-agnostic", observation_window=4)
        policy = Policy(name="kvcompose")
        compressed, _ = compress(tiny_model, context, ts, AggregationChoice(), 0.5, policy)
        if kind == "prefill":
            cache = prefill(tiny_model, context).cache
        else:
            cache = decode_step(tiny_model, compressed, 3).cache
        path = tmp_path / "c.kvcf"
        with pytest.raises(IoError, match="only compressed caches serialize"):
            write_cache(cache, path)
        assert not path.exists()
        write_cache(compressed, path)
        back = read_cache(path)
        assert back.next_positions == compressed.next_positions == [12, 12]
        for got, want in zip(back.keys + back.values, compressed.keys + compressed.values):
            assert np.array_equal(got, want.astype(np.float32).astype(np.float64))
        assert all(np.array_equal(a, b) for a, b in zip(back.provenance, compressed.provenance))


class TestReadCache:
    def test_corrupted_crc_rejected(self, tmp_path):
        data = bytearray(cache_to_bytes(make_cache(6)))
        data[-1] ^= 0xFF
        with pytest.raises(ChecksumError):
            cache_from_bytes(bytes(data))

    def test_truncated_payload_reports_lengths(self):
        data = cache_to_bytes(make_cache(7))
        with pytest.raises(TruncatedError, match=r"expected \d+ bytes"):
            cache_from_bytes(data[:-10])

    def test_trailing_bytes_rejected(self):
        data = cache_to_bytes(make_cache(8))
        with pytest.raises(TrailingBytesError):
            cache_from_bytes(data + b"\x00")

    def test_bad_magic(self):
        data = bytearray(cache_to_bytes(make_cache(9)))
        data[0] = ord("X")
        with pytest.raises(BadMagicError, match="byte 0"):
            cache_from_bytes(bytes(data))

    def test_unknown_version(self):
        data = bytearray(cache_to_bytes(make_cache(10)))
        data[4] = 9
        with pytest.raises(UnsupportedVersionError):
            cache_from_bytes(bytes(data))

    def test_golden_fixture_exact_values(self, tmp_path):
        # fixture generated by write_cache; values chosen to be f32-exact
        cache = make_cache(11, layers=1, kv_heads=1, head_dim=2, rows=(2,))
        cache.keys[0][:] = [[[0.5, -1.25], [2.0, 3.5]]]
        cache.values[0][:] = [[[1.0, 0.0], [-0.5, 8.0]]]
        cache.provenance[0][:] = [[4, 1]]
        cache = replace(cache, next_positions=[9])  # the context's tail was evicted
        path = tmp_path / "golden.kvcf"
        write_cache(cache, path)
        back = read_cache(path)
        assert back.keys[0].tolist() == [[[0.5, -1.25], [2.0, 3.5]]]
        assert back.values[0].tolist() == [[[1.0, 0.0], [-0.5, 8.0]]]
        assert back.provenance[0].tolist() == [[4, 1]]
        assert back.next_positions == [9]  # stored, not guessed from provenance

    def test_golden_bytes_are_stable(self):
        cache = make_cache(12, layers=1, kv_heads=1, head_dim=2, rows=(1,))
        cache.keys[0][:] = [[[1.0, 2.0]]]
        cache.values[0][:] = [[[3.0, 4.0]]]
        cache.provenance[0][:] = [[7]]
        cache = replace(cache, next_positions=[10])
        data = cache_to_bytes(cache)
        assert data[:4] == b"KVCF"
        assert data[4:6] == (2).to_bytes(2, "little")  # version
        assert data[6:10] == (1).to_bytes(4, "little")  # layers
        assert data[10:14] == (1).to_bytes(4, "little")  # kv heads
        assert data[14:18] == (2).to_bytes(4, "little")  # head dim
        assert data[18:22] == (1).to_bytes(4, "little")  # rows[0]
        assert data[22:26] == (10).to_bytes(4, "little")  # next[0]
        assert data[26:34] == np.asarray([1.0, 2.0], dtype="<f4").tobytes()
        assert data[34:42] == np.asarray([3.0, 4.0], dtype="<f4").tobytes()
        assert data[42:46] == (7).to_bytes(4, "little")
        assert data[46:50] == zlib.crc32(data[:46]).to_bytes(4, "little")
        assert len(data) == 50

    def test_version_1_rejected(self):
        # a version-1 file has no next-position table, so the position the
        # next decoded token takes is unknown; the reader refuses to guess
        body = (
            b"KVCF"
            + struct.pack("<HIII", 1, 1, 1, 2)  # version, layers, kv heads, head dim
            + struct.pack("<I", 1)  # rows[0]
            + np.asarray([1.0, 2.0, 3.0, 4.0], dtype="<f4").tobytes()  # K then V
            + struct.pack("<I", 7)  # provenance
        )
        with pytest.raises(UnsupportedVersionError, match="version 1 at byte 4"):
            cache_from_bytes(body + struct.pack("<I", zlib.crc32(body)))

    def test_next_position_before_kept_index_rejected(self):
        # a valid CRC over a next position that does not follow the kept tokens
        body = (
            b"KVCF"
            + struct.pack("<HIII", 2, 1, 1, 2)  # version, layers, kv heads, head dim
            + struct.pack("<II", 1, 0)  # rows[0], next[0]
            + np.asarray([1.0, 2.0, 3.0, 4.0], dtype="<f4").tobytes()  # K then V
            + struct.pack("<I", 7)  # provenance
        )
        with pytest.raises(MalformedHeaderError, match="at byte 22"):
            cache_from_bytes(body + struct.pack("<I", zlib.crc32(body)))

    def test_non_finite_payload_rejected(self):
        # a signalling NaN in the first key, under a valid CRC: the float64
        # cast would only warn, and decoding the cache would fail later
        start = cache_io.cache_header_size(2)
        body = bytearray(cache_to_bytes(make_cache(14))[:-4])
        body[start : start + 4] = struct.pack("<I", 0x7FA00000)
        with pytest.raises(CacheFormatError, match=f"non-finite K/V value at byte {start}$"):
            cache_from_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))

    def test_compressed_next_positions_roundtrip_at_high_ratio(self, tiny_model):
        # at r >= 0.9 the context's last token is often evicted everywhere,
        # which a reader guessing from provenance gets wrong
        guess_wrong = 0
        for seed in range(6):
            context = random_context(200 + seed, 24)
            ts = TaskSet(mode="task-agnostic", observation_window=8)
            for r in (0.9, 0.95):
                cache, _ = compress(
                    tiny_model, context, ts, AggregationChoice(), r, Policy(name="kvcompose")
                )
                back = cache_from_bytes(cache_to_bytes(cache))
                assert back.next_positions == cache.next_positions == [24, 24]
                newest = max(int(p.max()) for p in cache.provenance if p.size)
                guess_wrong += newest + 1 != 24
        assert guess_wrong > 0  # the case v1 could not represent did occur

    def test_header_fuzz_all_rejected(self):
        base = cache_to_bytes(make_cache(13))
        header_len = cache_io.cache_header_size(2)
        rng = SeededRng(99)
        for _ in range(300):
            pos = rng.randint(header_len)
            delta = 1 + rng.randint(255)
            corrupted = bytearray(base)
            corrupted[pos] = (corrupted[pos] + delta) % 256
            with pytest.raises(CacheFormatError):
                cache_from_bytes(bytes(corrupted))


class TestTensorFiles:
    def test_float_roundtrip(self, tmp_path):
        rng = SeededRng(14)
        array = np.float32(rng.uniform_block(24)).astype(np.float64).reshape(2, 3, 4)
        path = tmp_path / "t.kvct"
        write_tensor(array, path)
        back = read_tensor(path)
        assert back.shape == (2, 3, 4)
        assert np.array_equal(back.astype(np.float64), array)

    def test_integer_roundtrip(self, tmp_path):
        array = np.arange(12, dtype=np.int64).reshape(3, 4)
        path = tmp_path / "t.kvct"
        write_tensor(array, path)
        back = read_tensor(path)
        assert np.array_equal(back.astype(np.int64), array)

    def test_model_weights_roundtrip(self, tiny_model, tmp_path):
        path = tmp_path / "wq.kvct"
        write_tensor(tiny_model.wq, path)
        back = read_tensor(path)
        assert back.shape == tiny_model.wq.shape
        assert np.abs(back - tiny_model.wq).max() < 1e-7  # f32 storage precision

    def test_corruption_rejected(self, tmp_path):
        path = tmp_path / "t.kvct"
        write_tensor(np.ones(4), path)
        data = bytearray(path.read_bytes())
        data[10] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CacheFormatError):
            read_tensor(path)

    def test_element_count_is_exact(self, tmp_path):
        # 65536**4 == 2**64 elements: a wrapping product would read it as 0
        body = b"KVCT" + struct.pack("<HBB", 1, 0, 4) + struct.pack("<4I", *[65536] * 4)
        path = tmp_path / "huge.kvct"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert path.stat().st_size == 28
        with pytest.raises(TruncatedError):
            read_tensor(path)

    def test_too_many_dims_rejected(self):
        body = b"KVCT" + struct.pack("<HBB", 1, 0, 65) + struct.pack("<65I", *[1] * 65)
        body += np.zeros(1, dtype="<f4").tobytes()
        with pytest.raises(CacheFormatError):
            tensor_from_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _valid_files() -> list[bytes]:
    cache = cache_to_bytes(make_cache(30, layers=3, kv_heads=2, head_dim=2, rows=(2, 0, 3)))
    body = b"KVCT" + struct.pack("<HBB", 1, 0, 2) + struct.pack("<2I", 2, 3)
    body += np.arange(6, dtype="<f4").tobytes()
    return [cache, body + struct.pack("<I", zlib.crc32(body))]


def _parses_or_format_error(data: bytes) -> None:
    for parse in (cache_from_bytes, tensor_from_bytes):
        try:
            parse(data)
        except CacheFormatError:
            pass


class TestFormatFuzz:
    """Whatever the bytes, a reader returns a value or raises CacheFormatError."""

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=96), st.sampled_from([b"", b"KVCF", b"KVCT"]))
    def test_arbitrary_bytes(self, tail, magic):
        _parses_or_format_error(magic + tail)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(_valid_files()),
        st.lists(st.tuples(st.integers(0, 120), st.integers(0, 255)), max_size=4),
        st.integers(-8, 8),
    )
    def test_crc_fixed_mutations(self, data, edits, resize):
        body = bytearray(data[:-4])
        for pos, value in edits:
            if pos < len(body):
                body[pos] = value
        body = body[: len(body) + resize] if resize < 0 else body + bytes(resize)
        _parses_or_format_error(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))


class TestReports:
    def make_report(self, model):
        tasks = make_agreement_tasks(model, 2, 10, 3, seed=16)
        points = sweep(
            model, tasks, Policy(name="streaming"), AggregationChoice(), grid=(0.0, 0.5)
        )
        return build_report(Policy(name="streaming"), points, seeds=[16], config={"note": "t"})

    def test_single_point_grid_gives_one_csv_row(self, tiny_model):
        tasks = make_agreement_tasks(tiny_model, 1, 8, 2, seed=17)
        points = sweep(tiny_model, tasks, Policy(name="kvcompose"), AggregationChoice(), grid=(0.0,))
        report = build_report(
            Policy(name="kvcompose"), points, seeds=[17],
            tolerances=(),
        )
        csv = cache_io.report_to_csv(report)
        lines = csv.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == ",".join(cache_io.CSV_COLUMNS)

    def test_json_roundtrip(self, tiny_model, tmp_path):
        report = self.make_report(tiny_model)
        paths = write_report(report, tmp_path)
        parsed = json.loads(paths["json"].read_text())
        assert parsed["policy"] == "streaming"
        assert len(parsed["points"]) == 2
        assert parsed["auc"] == report.auc
        assert parsed["config"] == {"note": "t"}
        assert parsed["points"][0]["r_target"] == 0.0
        # the JSON is the report dataclass itself, so a new field shows here
        assert sorted(parsed) == ["auc", "config", "points", "policy", "seeds", "tolerances"]
        assert all(sorted(p) == sorted(cache_io.CSV_COLUMNS) for p in parsed["points"])
        assert [sorted(t) for t in parsed["tolerances"]] == [
            ["r_grid", "r_interpolated", "tolerance"]
        ] * len(DEFAULT_TOLERANCES)

    def test_identical_reports_byte_identical(self, tiny_model, tmp_path):
        report = self.make_report(tiny_model)
        p1 = write_report(report, tmp_path / "a")
        p2 = write_report(report, tmp_path / "b")
        assert p1["json"].read_bytes() == p2["json"].read_bytes()
        assert p1["csv"].read_bytes() == p2["csv"].read_bytes()

    def test_csv_row_count_matches_grid(self, tiny_model):
        report = self.make_report(tiny_model)
        csv = cache_io.report_to_csv(report)
        assert len(csv.strip().split("\n")) == 1 + len(report.points)
