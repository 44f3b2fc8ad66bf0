"""Trace file formats: compact binary and human-readable CSV.

Binary layout (little-endian throughout), 32-byte header:

    offset  size  field
    0       4     magic "IQT1"
    4       1     format version (1)
    5       1     flags (reserved, must be 0)
    6       1     channel count (must be 2)
    7       1     ADC bits (0 = trace was never quantized)
    8       8     sample count, uint64
    16      8     sample rate in Sa/s, float64
    24      8     ADC full-scale voltage, float64

followed by ``sample count`` interleaved (I, Q) float32 pairs.  The CSV
variant has a ``v_i,v_q`` header row and one decimal pair per line; lines
starting with ``#`` are comments.  :func:`ingest_trace` reads a file that
starts with the magic as binary, any other as CSV.  All writes go through a
temp file in the destination directory and a final rename, so readers never
observe a half-written file.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
from array import array

import numpy as np

from .errors import FormatError, ParameterError, check_scalar
from .optics import IQTrace

MAGIC = b"IQT1"
VERSION = 1
HEADER_SIZE = 32
_HEADER = struct.Struct("<4sBBBBQdd")
_SAMPLE_PAIR_BYTES = 8            # two float32s
_QUOTE_CHARS = 40                 # longest line excerpt a CSV error quotes
_F32_MAX = float(np.finfo(np.float32).max)   # largest sample the payload holds


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a sibling temp file and rename.

    The temp file is created with mode 0666 less the umask, as ``open``
    would create ``path`` itself.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".trace-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def encode_trace(trace: IQTrace) -> bytes:
    """Serialize a trace to the binary format.

    A sample beyond float32's range is refused, before the cast that would
    make it inf and so drop its row when the trace is read back.
    """
    peak = max(trace.v_i.max(), -trace.v_i.min(), trace.v_q.max(), -trace.v_q.min())
    if peak > _F32_MAX:
        raise ParameterError(f"trace sample magnitude {peak:.4g} is beyond the "
                             f"float32 range ±{_F32_MAX:.7g}")
    count = trace.v_i.size
    header = _HEADER.pack(MAGIC, VERSION, 0, 2, trace.adc_bits,
                          count, trace.sample_rate, trace.fullscale)
    payload = np.empty(2 * count, dtype="<f4")
    payload[0::2] = trace.v_i
    payload[1::2] = trace.v_q
    return header + payload.tobytes()


def write_trace_binary(trace: IQTrace, path: str) -> None:
    atomic_write_bytes(path, encode_trace(trace))


def decode_trace(blob: bytes) -> IQTrace:
    """Parse the binary format; strict about every header field."""
    if len(blob) < HEADER_SIZE:
        raise FormatError(
            f"truncated header: expected at least {HEADER_SIZE} bytes, "
            f"got {len(blob)}")
    magic, version, flags, channels, adc_bits, count, rate, fullscale = \
        _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version} at byte 4")
    if flags != 0:
        raise FormatError(f"unknown flags 0x{flags:02x} at byte 5")
    if channels != 2:
        raise FormatError(f"unsupported channel count {channels} at byte 6")
    if adc_bits > 16:
        raise FormatError(f"implausible ADC bits {adc_bits} at byte 7")
    if not (rate > 0.0) or not math.isfinite(rate):
        raise FormatError(f"invalid sample rate {rate!r} at byte 16")
    if not (fullscale > 0.0) or not math.isfinite(fullscale):
        raise FormatError(f"invalid full-scale {fullscale!r} at byte 24")
    expected = HEADER_SIZE + count * _SAMPLE_PAIR_BYTES
    if len(blob) != expected:
        kind = "truncated payload" if len(blob) < expected else "trailing data"
        raise FormatError(f"{kind}: expected {expected} bytes, got {len(blob)}")
    if count == 0:
        raise FormatError("empty trace: declared sample count is 0")
    payload = np.frombuffer(blob, dtype="<f4", offset=HEADER_SIZE)
    v_i = payload[0::2]
    v_q = payload[1::2]
    keep = np.isfinite(v_i) & np.isfinite(v_q)
    rejected = int(count - np.count_nonzero(keep))
    if rejected == count:
        raise FormatError(f"no finite sample pairs among {count} rows")
    if rejected:
        v_i, v_q = v_i[keep], v_q[keep]
    return IQTrace(v_i=v_i, v_q=v_q, sample_rate=rate, adc_bits=adc_bits,
                   fullscale=fullscale, rejected_rows=rejected)


def read_trace_binary(path: str) -> IQTrace:
    with open(path, "rb") as fh:
        return decode_trace(fh.read())


def write_trace_csv(trace: IQTrace, path: str, comments: tuple[str, ...] = ()) -> None:
    """CSV with a ``v_i,v_q`` header; optional leading ``#`` comments."""
    lines = [f"# {c}" for c in comments]
    lines.append("v_i,v_q")
    for vi, vq in zip(trace.v_i, trace.v_q):
        lines.append(f"{float(vi)!r},{float(vq)!r}")
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def _excerpt(line: str) -> str:
    """``line`` quoted, cut to its first ``_QUOTE_CHARS`` characters."""
    return repr(line[:_QUOTE_CHARS]) + ("..." if len(line) > _QUOTE_CHARS else "")


def read_trace_csv(path: str, sample_rate: float) -> IQTrace:
    sample_rate = check_scalar("sample_rate", sample_rate)
    v_i = array("d")
    v_q = array("d")
    rejected = 0
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if not header_seen:
                    if line != "v_i,v_q":
                        raise FormatError(f"expected header 'v_i,v_q' at line "
                                          f"{lineno}, got {_excerpt(line)}")
                    header_seen = True
                    continue
                fields = line.split(",")
                if len(fields) != 2:
                    raise FormatError(
                        f"expected 2 fields at line {lineno}, got {len(fields)}")
                try:
                    vi, vq = float(fields[0]), float(fields[1])
                except ValueError:
                    raise FormatError(
                        f"non-numeric value at line {lineno}: {_excerpt(line)}") from None
                if not (math.isfinite(vi) and math.isfinite(vq)):
                    rejected += 1
                    continue
                if abs(vi) > _F32_MAX or abs(vq) > _F32_MAX:
                    raise FormatError(f"value beyond the float32 range ±{_F32_MAX:.7g} "
                                      f"at line {lineno}: {_excerpt(line)}")
                v_i.append(vi)
                v_q.append(vq)
        except UnicodeDecodeError:
            raise FormatError("not UTF-8 text") from None
    if not header_seen:
        raise FormatError("empty file: missing 'v_i,v_q' header")
    if not v_i:
        raise FormatError("no finite sample rows after the header")
    return IQTrace(v_i=np.frombuffer(v_i).astype(np.float32),
                   v_q=np.frombuffer(v_q).astype(np.float32),
                   sample_rate=sample_rate, rejected_rows=rejected)


def ingest_trace(path: str, sample_rate: float | None = None) -> IQTrace:
    """A capture: binary if it starts with ``MAGIC``, else CSV at ``sample_rate``."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) == MAGIC:
            return read_trace_binary(path)
    try:
        return read_trace_csv(path, sample_rate)
    except FormatError as exc:
        raise FormatError(f"{path!r} does not start with {MAGIC!r} and is not "
                          f"a CSV trace: {exc}") from None
