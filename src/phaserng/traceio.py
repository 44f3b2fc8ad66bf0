"""Trace and symbol file formats: compact binary and human-readable CSV.

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
starting with ``#`` are comments.  All writes go through a temp file in
the destination directory and a final rename, so readers never observe a
half-written file.
"""

from __future__ import annotations

import math
import os
import secrets
import struct

import numpy as np

from .errors import FormatError, ParameterError
from .optics import IQTrace
from .reconstruction import SymbolStream

MAGIC = b"IQT1"
VERSION = 1
HEADER_SIZE = 32
_HEADER = struct.Struct("<4sBBBBQdd")
_SAMPLE_PAIR_BYTES = 8            # two float32s

SYMBOL_MAGIC = b"SYM1"
SYMBOL_VERSION = 1
_SYMBOL_HEADER = struct.Struct("<4sBBHQ")


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
    """Serialize a trace to the binary format."""
    count = trace.v_i.size
    header = _HEADER.pack(MAGIC, VERSION, 0, 2, trace.adc_bits,
                          count, trace.sample_rate, trace.fullscale)
    payload = np.empty(2 * count, dtype="<f4")
    payload[0::2] = trace.v_i
    payload[1::2] = trace.v_q
    return header + payload.tobytes()


def write_trace_binary(trace: IQTrace, path: str) -> None:
    atomic_write_bytes(path, encode_trace(trace))


def _check_size(blob: bytes, expected: int) -> None:
    if len(blob) != expected:
        kind = "truncated payload" if len(blob) < expected else "trailing data"
        raise FormatError(f"{kind}: expected {expected} bytes, got {len(blob)}")


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
    _check_size(blob, HEADER_SIZE + count * _SAMPLE_PAIR_BYTES)
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


def encode_symbols(stream: SymbolStream) -> bytes:
    """Serialize symbols: a 16-byte ``<4sBBHQ`` header (magic "SYM1", version,
    bits per symbol, reserved 0, count), then ``count`` uint16 symbols."""
    header = _SYMBOL_HEADER.pack(SYMBOL_MAGIC, SYMBOL_VERSION,
                                 stream.bits_per_symbol, 0, len(stream))
    return header + stream.symbols.astype("<u2").tobytes()


def decode_symbols(blob: bytes) -> SymbolStream:
    """Parse the symbol format; strict about every field and every symbol."""
    size = _SYMBOL_HEADER.size
    if len(blob) < size:
        raise FormatError(f"truncated header: expected {size} bytes, got {len(blob)}")
    magic, version, bits, reserved, count = _SYMBOL_HEADER.unpack_from(blob)
    if magic != SYMBOL_MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0, expected {SYMBOL_MAGIC!r}")
    if version != SYMBOL_VERSION:
        raise FormatError(f"unsupported version {version} at byte 4")
    if not (1 <= bits <= 16):
        raise FormatError(f"bits per symbol {bits} at byte 5 not in [1, 16]")
    if reserved != 0:
        raise FormatError(f"nonzero reserved field 0x{reserved:04x} at byte 6")
    if count == 0:
        raise FormatError("empty stream: symbol count is 0 at byte 8")
    _check_size(blob, size + 2 * count)
    symbols = np.frombuffer(blob, dtype="<u2", offset=size)
    over = np.flatnonzero(symbols >> bits) if bits < 16 else []
    if len(over):
        k = int(over[0])
        raise FormatError(f"symbol {symbols[k]} at byte {size + 2 * k} exceeds {bits} bits")
    return SymbolStream(symbols=symbols, bits_per_symbol=bits)


def write_trace_csv(trace: IQTrace, path: str, comments: tuple[str, ...] = ()) -> None:
    """CSV with a ``v_i,v_q`` header; optional leading ``#`` comments."""
    lines = [f"# {c}" for c in comments]
    lines.append("v_i,v_q")
    for vi, vq in zip(trace.v_i, trace.v_q):
        lines.append(f"{float(vi)!r},{float(vq)!r}")
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def read_trace_csv(path: str, sample_rate: float) -> IQTrace:
    if not (sample_rate > 0.0):
        raise ParameterError(
            f"CSV traces carry no rate; pass sample_rate > 0, got {sample_rate}")
    v_i: list[float] = []
    v_q: list[float] = []
    rejected = 0
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != "v_i,v_q":
                    raise FormatError(
                        f"expected header 'v_i,v_q' at line {lineno}, got {line!r}")
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
                    f"non-numeric value at line {lineno}: {line!r}") from None
            if not (math.isfinite(vi) and math.isfinite(vq)):
                rejected += 1
                continue
            v_i.append(vi)
            v_q.append(vq)
    if not header_seen:
        raise FormatError("empty file: missing 'v_i,v_q' header")
    if not v_i:
        raise FormatError("no finite sample rows after the header")
    return IQTrace(v_i=np.asarray(v_i, dtype=np.float32),
                   v_q=np.asarray(v_q, dtype=np.float32),
                   sample_rate=float(sample_rate), rejected_rows=rejected)


def ingest_trace(path: str, fmt: str = "binary",
                 sample_rate: float | None = None) -> IQTrace:
    """Read a capture file.  ``sample_rate`` is required for CSV input."""
    if fmt == "binary":
        return read_trace_binary(path)
    if fmt == "csv":
        if sample_rate is None:
            raise ParameterError("CSV ingestion requires an explicit sample_rate")
        return read_trace_csv(path, sample_rate)
    raise ParameterError(f"unknown trace format {fmt!r}")
