import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from phaserng import traceio
from phaserng.errors import FormatError, ParameterError
from phaserng.optics import IQTrace


def make_trace(count=257, seed=0, adc_bits=10, fullscale=0.25,
               sample_rate=2.0e8):
    gen = np.random.default_rng(seed)
    v = gen.normal(scale=0.05, size=(2, count)).astype(np.float32)
    return IQTrace(v_i=v[0], v_q=v[1], sample_rate=sample_rate,
                   adc_bits=adc_bits, fullscale=fullscale)


def header_bytes(magic=b"IQT1", version=1, flags=0, channels=2, adc_bits=0,
                 count=1, rate=1.0e6, fullscale=1.0):
    return struct.pack("<4sBBBBQdd", magic, version, flags, channels,
                       adc_bits, count, rate, fullscale)


def payload_bytes(v_i, v_q):
    out = np.empty(2 * len(v_i), dtype="<f4")
    out[0::2] = v_i
    out[1::2] = v_q
    return out.tobytes()


class TestBinaryRoundTrip:
    def test_exact_values_and_metadata(self, tmp_path):
        trace = make_trace()
        path = str(tmp_path / "t.iqt")
        traceio.write_trace_binary(trace, path)
        back = traceio.read_trace_binary(path)
        np.testing.assert_array_equal(back.v_i, trace.v_i)
        np.testing.assert_array_equal(back.v_q, trace.v_q)
        assert back.sample_rate == trace.sample_rate
        assert back.adc_bits == 10
        assert back.fullscale == 0.25
        assert back.rejected_rows == 0

    def test_reencode_is_byte_identical(self, tmp_path):
        trace = make_trace(count=1000, seed=1)
        blob = traceio.encode_trace(trace)
        assert traceio.encode_trace(traceio.decode_trace(blob)) == blob

    def test_file_size(self, tmp_path):
        trace = make_trace(count=123)
        path = str(tmp_path / "t.iqt")
        traceio.write_trace_binary(trace, path)
        assert os.path.getsize(path) == 32 + 123 * 8

    def test_header_layout(self):
        trace = make_trace(count=5, adc_bits=12, fullscale=0.5,
                           sample_rate=1.0e9)
        blob = traceio.encode_trace(trace)
        assert blob[:4] == b"IQT1"
        magic, ver, flags, ch, bits, count, rate, fs = struct.unpack(
            "<4sBBBBQdd", blob[:32])
        assert (ver, flags, ch, bits, count) == (1, 0, 2, 12, 5)
        assert rate == 1.0e9 and fs == 0.5

    def test_single_sample(self, tmp_path):
        trace = IQTrace(v_i=np.array([0.125]), v_q=np.array([-0.5]),
                        sample_rate=1.0)
        path = str(tmp_path / "one.iqt")
        traceio.write_trace_binary(trace, path)
        back = traceio.read_trace_binary(path)
        assert back.v_i[0] == 0.125 and back.v_q[0] == -0.5

    @given(hnp.arrays(np.float32, hst.integers(1, 64),
                      elements=hst.floats(-10, 10, width=32)),
           hnp.arrays(np.float32, hst.integers(1, 64),
                      elements=hst.floats(-10, 10, width=32)),
           hst.floats(1.0, 1e12))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, v_i, v_q, rate):
        n = min(v_i.size, v_q.size)
        trace = IQTrace(v_i=v_i[:n], v_q=v_q[:n], sample_rate=rate)
        back = traceio.decode_trace(traceio.encode_trace(trace))
        np.testing.assert_array_equal(back.v_i, trace.v_i)
        np.testing.assert_array_equal(back.v_q, trace.v_q)
        assert back.sample_rate == rate


class TestFloat32Range:
    # 3.5e38 is finite in float64 and inf in float32; the largest float32
    # itself is kept.
    @pytest.mark.parametrize("channel", ["v_i", "v_q"])
    @pytest.mark.parametrize("value", [3.5e38, -3.5e38])
    def test_encode_refuses_before_the_cast(self, channel, value):
        trace = make_trace(count=8)
        samples = {"v_i": trace.v_i.copy(), "v_q": trace.v_q.copy()}
        samples[channel][5] = value
        with pytest.raises(ParameterError, match="beyond the float32 range ±3.402823e"):
            traceio.encode_trace(IQTrace(sample_rate=1.0, **samples))

    def test_largest_float32_round_trips(self):
        top = float(np.finfo(np.float32).max)
        trace = IQTrace(v_i=[top, -top], v_q=[0.5, -top], sample_rate=1.0)
        back = traceio.decode_trace(traceio.encode_trace(trace))
        np.testing.assert_array_equal(back.v_i, trace.v_i)
        np.testing.assert_array_equal(back.v_q, trace.v_q)
        assert back.rejected_rows == 0

    @pytest.mark.parametrize("row", ["1e39,0.1", "0.1,-1e39"])
    def test_csv_refusal_names_the_line(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(f"# capture\nv_i,v_q\n0.5,0.1\n{row}\n")
        with pytest.raises(FormatError, match=f"at line 4: '{row}'"):
            traceio.read_trace_csv(str(path), sample_rate=1.0)


class TestBinaryHeaderValidation:
    @pytest.mark.parametrize("kwargs,offset", [
        ({"magic": b"IQT2"}, "byte 0"),
        ({"version": 2}, "byte 4"),
        ({"flags": 1}, "byte 5"),
        ({"channels": 1}, "byte 6"),
        ({"adc_bits": 17}, "byte 7"),
        ({"rate": 0.0}, "byte 16"),
        ({"rate": float("nan")}, "byte 16"),
        ({"fullscale": -1.0}, "byte 24"),
        ({"fullscale": float("inf")}, "byte 24"),
    ])
    def test_each_field_checked_with_offset(self, kwargs, offset):
        blob = header_bytes(**kwargs) + payload_bytes([0.0], [0.0])
        with pytest.raises(FormatError, match=offset):
            traceio.decode_trace(blob)

    def test_truncated_header(self):
        with pytest.raises(FormatError, match="truncated header"):
            traceio.decode_trace(b"IQT1\x01\x00\x02")

    def test_truncated_payload(self):
        blob = header_bytes(count=4) + payload_bytes([0.0] * 3, [0.0] * 3)
        with pytest.raises(FormatError, match="truncated payload"):
            traceio.decode_trace(blob)

    def test_trailing_data(self):
        blob = header_bytes(count=2) + payload_bytes([0.0] * 2, [0.0] * 2)
        with pytest.raises(FormatError, match="trailing data"):
            traceio.decode_trace(blob + b"\x00")

    def test_zero_sample_count(self):
        with pytest.raises(FormatError, match="empty trace"):
            traceio.decode_trace(header_bytes(count=0))


class TestBinaryNonFiniteRows:
    def test_rows_dropped_and_counted(self):
        v_i = np.arange(10, dtype=np.float32)
        v_q = -np.arange(10, dtype=np.float32)
        v_i[3] = np.nan
        v_q[7] = np.inf
        blob = header_bytes(count=10) + payload_bytes(v_i, v_q)
        trace = traceio.decode_trace(blob)
        assert len(trace) == 8
        assert trace.rejected_rows == 2
        keep = [0, 1, 2, 4, 5, 6, 8, 9]
        np.testing.assert_array_equal(trace.v_i, v_i[keep])
        np.testing.assert_array_equal(trace.v_q, v_q[keep])

    def test_all_rows_bad(self):
        v = np.full(4, np.nan, dtype=np.float32)
        blob = header_bytes(count=4) + payload_bytes(v, v)
        with pytest.raises(FormatError, match="no finite sample pairs"):
            traceio.decode_trace(blob)


class TestAtomicWrite:
    def test_writes_exact_bytes(self, tmp_path):
        path = str(tmp_path / "blob.bin")
        traceio.atomic_write_bytes(path, b"abc123")
        with open(path, "rb") as fh:
            assert fh.read() == b"abc123"

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "blob.bin")
        traceio.atomic_write_bytes(path, b"x" * 1000)
        traceio.atomic_write_bytes(path, b"y")   # overwrite
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blob.bin"]
        with open(path, "rb") as fh:
            assert fh.read() == b"y"

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_file_mode_follows_umask(self, tmp_path, umask, mode):
        path = str(tmp_path / "blob.bin")
        old = os.umask(umask)
        try:
            traceio.atomic_write_bytes(path, b"abc")
        finally:
            os.umask(old)
        assert os.stat(path).st_mode & 0o777 == mode


class TestCsv:
    def test_roundtrip_is_float32_exact(self, tmp_path):
        trace = make_trace(count=100, seed=2)
        path = str(tmp_path / "t.csv")
        traceio.write_trace_csv(trace, path, comments=("capture 7", "lab B"))
        back = traceio.read_trace_csv(path, sample_rate=trace.sample_rate)
        np.testing.assert_array_equal(back.v_i, trace.v_i)
        np.testing.assert_array_equal(back.v_q, trace.v_q)

    def test_layout(self, tmp_path):
        trace = IQTrace(v_i=np.array([0.5]), v_q=np.array([-0.25]),
                        sample_rate=1.0)
        path = str(tmp_path / "t.csv")
        traceio.write_trace_csv(trace, path, comments=("note",))
        lines = open(path).read().splitlines()
        assert lines[0] == "# note"
        assert lines[1] == "v_i,v_q"
        assert lines[2] == "0.5,-0.25"

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# top\n\nv_i,v_q\n# middle\n1.0,2.0\n\n3.0,4.0\n")
        trace = traceio.read_trace_csv(str(path), sample_rate=5.0)
        np.testing.assert_array_equal(trace.v_i, [1.0, 3.0])
        np.testing.assert_array_equal(trace.v_q, [2.0, 4.0])

    def test_non_finite_rows_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("v_i,v_q\n1.0,2.0\nnan,2.0\n1.0,inf\n5.0,6.0\n")
        trace = traceio.read_trace_csv(str(path), sample_rate=1.0)
        assert len(trace) == 2
        assert trace.rejected_rows == 2

    def test_missing_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(FormatError, match="v_i,v_q"):
            traceio.read_trace_csv(str(path), sample_rate=1.0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(FormatError, match="missing 'v_i,v_q' header"):
            traceio.read_trace_csv(str(path), sample_rate=1.0)

    def test_header_but_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("v_i,v_q\nnan,nan\n")
        with pytest.raises(FormatError, match="no finite sample rows"):
            traceio.read_trace_csv(str(path), sample_rate=1.0)

    def test_wrong_field_count_points_at_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("v_i,v_q\n1.0,2.0\n1.0,2.0,3.0\n")
        with pytest.raises(FormatError, match="line 3"):
            traceio.read_trace_csv(str(path), sample_rate=1.0)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("v_i,v_q\nhigh,low\n")
        with pytest.raises(FormatError, match="non-numeric value at line 2"):
            traceio.read_trace_csv(str(path), sample_rate=1.0)

    def test_sample_rate_must_be_positive(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("v_i,v_q\n1.0,2.0\n")
        with pytest.raises(ParameterError, match="sample_rate"):
            traceio.read_trace_csv(str(path), sample_rate=0.0)

    # A capture without newlines must not turn into an error as large as itself.
    @pytest.mark.parametrize("prefix,suffix,reason", [
        ("", "", "expected header 'v_i,v_q' at line 1"),
        ("v_i,v_q\n", ",1.0", "non-numeric value at line 2"),
    ], ids=["header", "row"])
    def test_long_line_is_quoted_in_part(self, tmp_path, prefix, suffix, reason):
        path = tmp_path / "t.csv"
        path.write_text(prefix + "a" * 2_000_000 + suffix)
        with pytest.raises(FormatError, match=reason) as exc:
            traceio.read_trace_csv(str(path), sample_rate=1.0)
        assert len(str(exc.value).encode()) < 200


class TestDispatch:
    def test_write_and_ingest_binary(self, tmp_path):
        trace = make_trace(count=50, seed=3)
        path = str(tmp_path / "t.iqt")
        traceio.write_trace_binary(trace, path)
        back = traceio.ingest_trace(path)
        np.testing.assert_array_equal(back.v_i, trace.v_i)

    def test_write_and_ingest_csv(self, tmp_path):
        trace = make_trace(count=50, seed=4)
        path = str(tmp_path / "t.csv")
        traceio.write_trace_csv(trace, path)
        back = traceio.ingest_trace(path, sample_rate=7.0)
        np.testing.assert_array_equal(back.v_q, trace.v_q)
        assert back.sample_rate == 7.0

    def test_csv_ingest_requires_rate(self, tmp_path):
        path = str(tmp_path / "t.csv")
        traceio.write_trace_csv(make_trace(count=5), path)
        with pytest.raises(ParameterError, match="sample_rate"):
            traceio.ingest_trace(path)

    # A file without the magic is read as CSV, and its error says both.
    @pytest.mark.parametrize("content,reason", [
        (b"IQT", "expected header 'v_i,v_q' at line 1"),
        (b"IQT0" + bytes(28), "expected header 'v_i,v_q' at line 1"),
        (b"\xff\xfe\x00v_i,v_q\n", "not UTF-8 text"),
        (b"", "empty file"),
    ], ids=["short-magic", "wrong-magic", "not-utf8", "empty"])
    def test_neither_trace_nor_csv(self, tmp_path, content, reason):
        path = tmp_path / "capture.iqt"
        path.write_bytes(content)
        with pytest.raises(FormatError) as exc:
            traceio.ingest_trace(str(path), sample_rate=1.0)
        assert "does not start with b'IQT1' and is not a CSV trace" in str(exc.value)
        assert reason in str(exc.value)

    # A file with the magic is read as binary, even a corrupt one.
    def test_corrupt_binary_trace_keeps_its_offsets(self, tmp_path):
        path = tmp_path / "capture.iqt"
        path.write_bytes(header_bytes(version=2) + payload_bytes([0.1], [0.2]))
        with pytest.raises(FormatError, match="unsupported version 2 at byte 4"):
            traceio.ingest_trace(str(path), sample_rate=1.0)
