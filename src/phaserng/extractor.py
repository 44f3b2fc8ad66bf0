"""Toeplitz-hashing randomness extraction over GF(2).

A seeded n-by-m Toeplitz matrix T (T[i, j] = seed[i - j + n - 1]) maps
each n-bit input block to an m-bit output block, y = T.x over GF(2).
Output length per block is chosen from the input min-entropy rate, either
by the leftover-hash-lemma bound (with an explicit security parameter) or
as the plain entropy-rate fraction.

The production multiply is a chunked real FFT convolution of each block
with the seed; a naive O(n*m) dense multiply is kept as the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from . import rng
from .errors import (FormatError, InsufficientEntropyError,
                     InsufficientInputError, ParameterError)

DEFAULT_EPSILON = 2.0 ** -50


@dataclass(frozen=True)
class BitStream:
    """Packed bits, most-significant-bit first within each byte."""

    data: bytes = field(repr=False)
    bit_length: int

    def __post_init__(self):
        n = int(self.bit_length)
        raw = bytes(self.data)
        if n < 0:
            raise ParameterError("bit_length must be >= 0")
        if len(raw) != (n + 7) // 8:
            raise ParameterError(
                f"byte count {len(raw)} inconsistent with bit_length {n}")
        # Trailing pad bits must be zero so equal streams compare equal.
        if n % 8 and raw and raw[-1] & ((1 << (8 - n % 8)) - 1):
            raise ParameterError("trailing pad bits must be zero")
        object.__setattr__(self, "data", raw)
        object.__setattr__(self, "bit_length", n)

    def __len__(self) -> int:
        return self.bit_length

    @classmethod
    def from_bits(cls, bits) -> "BitStream":
        """Pack an array of 0/1 values, first element into the top bit."""
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise ParameterError("bits must be 1-D")
        if arr.size and not np.all((arr == 0) | (arr == 1)):
            raise ParameterError("bits must be 0 or 1")
        packed = np.packbits(arr.astype(np.uint8))
        return cls(data=packed.tobytes(), bit_length=int(arr.size))

    def to_bits(self) -> np.ndarray:
        """Unpack to a uint8 array of 0/1 of length bit_length."""
        return np.unpackbits(np.frombuffer(self.data, dtype=np.uint8),
                             count=self.bit_length)


@dataclass(frozen=True)
class ToeplitzSpec:
    """Extractor geometry plus the seed bits defining the matrix."""

    input_block_bits: int
    output_block_bits: int
    seed_bits: np.ndarray = field(repr=False)   # 0/1 array, length n + m - 1

    def __post_init__(self):
        n = int(self.input_block_bits)
        m = int(self.output_block_bits)
        if not (1 <= m <= n):
            raise ParameterError(f"need 1 <= m <= n, got n={n}, m={m}")
        seed = np.asarray(self.seed_bits, dtype=np.uint8)
        if seed.ndim != 1 or seed.size != n + m - 1:
            raise ParameterError(
                f"seed must have exactly n + m - 1 = {n + m - 1} bits, got {seed.size}")
        if seed.size and not np.all((seed == 0) | (seed == 1)):
            raise ParameterError("seed bits must be 0 or 1")
        object.__setattr__(self, "input_block_bits", n)
        object.__setattr__(self, "output_block_bits", m)
        object.__setattr__(self, "seed_bits", seed)

    @classmethod
    def from_rng(cls, n: int, m: int, seed: int, stream: int = 0) -> "ToeplitzSpec":
        """Deterministic test seed source (counter-based generator)."""
        bits = rng.random_bits(int(n) + int(m) - 1, seed, stream)
        return cls(input_block_bits=n, output_block_bits=m, seed_bits=bits)

    def matrix(self) -> np.ndarray:
        """Dense 0/1 matrix T with T[i, j] = seed[i - j + n - 1] (small n only)."""
        n, m = self.input_block_bits, self.output_block_bits
        i = np.arange(m)[:, None]
        j = np.arange(n)[None, :]
        return self.seed_bits[i - j + n - 1]


def derive_params(min_entropy_rate: float, n: int,
                  epsilon: float = DEFAULT_EPSILON,
                  mode: str = "lemma") -> tuple[int, int]:
    """Choose the output block length m for input blocks of n bits.

    "lemma" applies the leftover-hash-lemma bound
    m = floor(n*rate - 2*log2(1/epsilon)), paying 2*log2(1/epsilon) bits
    for a statistical distance of at most epsilon.  "ratio" keeps the full
    entropy budget, m = floor(n*rate), with no security margin.
    """
    rate = float(min_entropy_rate)
    n = int(n)
    if not (0.0 < rate <= 1.0):
        raise ParameterError(f"min_entropy_rate must be in (0, 1], got {rate}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if mode == "lemma":
        if not (0.0 < epsilon < 1.0):
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        m = math.floor(n * rate - 2.0 * math.log2(1.0 / epsilon))
    elif mode == "ratio":
        m = math.floor(n * rate)
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    if m < 1:
        raise InsufficientEntropyError(
            f"derived output length {m} <= 0: entropy rate {rate} over {n}-bit "
            "blocks cannot fund extraction at this epsilon")
    return n, int(m)


def symbols_to_bits(stream) -> BitStream:
    """Serialize quantizer symbols, each as bits_per_symbol bits, MSB first."""
    n = int(stream.bits_per_symbol)
    symbols = np.asarray(stream.symbols, dtype=np.uint16)
    as_bytes = symbols.astype(">u2").view(np.uint8).reshape(-1, 2)
    bits16 = np.unpackbits(as_bytes, axis=1)
    bits = bits16[:, 16 - n:]
    return BitStream.from_bits(np.ascontiguousarray(bits).ravel())


class ExtractResult(NamedTuple):
    bits: BitStream
    blocks: int
    discarded_bits: int


#: Blocks per batched FFT; bounds the float64 working set to a few MB.
_CHUNK_BLOCKS = 64


def extract(bits: BitStream, spec: ToeplitzSpec) -> ExtractResult:
    """Hash consecutive n-bit blocks to m-bit blocks with the seeded matrix.

    Output block y = T.x is coefficients n-1 .. n+m-2 of the polynomial
    product seed * x, reduced mod 2.  The product is a real circular
    convolution of length L >= n + m - 1, computed by rFFT over chunks of
    whole blocks; at that length the needed coefficients do not alias.
    The exact coefficients are integers in [0, n], and float64 FFT error is
    about 1e-12 at n = 4000, so rounding is exact for every valid spec; a
    residue of 0.25 or more raises FloatingPointError instead of emitting
    bits.

    The trailing partial block is discarded (its size is reported, never
    zero-padded into a biased block).  Output blocks appear in input order.
    """
    n, m = spec.input_block_bits, spec.output_block_bits
    if bits.bit_length < n:
        raise InsufficientInputError(
            f"need at least one {n}-bit block, got {bits.bit_length} bits")
    blocks = bits.bit_length // n
    discarded = bits.bit_length - blocks * n
    size = next_fast_len(n + m - 1, real=True)
    seed_spectrum = rfft(spec.seed_bits.astype(np.float64), size)
    packed = np.frombuffer(bits.data, dtype=np.uint8)
    out = np.empty((blocks, m), dtype=np.uint8)
    for start in range(0, blocks, _CHUNK_BLOCKS):
        stop = min(start + _CHUNK_BLOCKS, blocks)
        lo, hi = start * n, stop * n
        x = np.unpackbits(packed[lo // 8:(hi + 7) // 8],
                          count=lo % 8 + hi - lo)[lo % 8:]
        x = x.reshape(stop - start, n).astype(np.float64)
        conv = irfft(rfft(x, size, axis=1) * seed_spectrum, size,
                     axis=1)[:, n - 1:n + m - 1]
        coeffs = np.rint(conv)
        if np.max(np.abs(conv - coeffs)) >= 0.25:
            raise FloatingPointError(
                "Toeplitz FFT product is not within 0.25 of an integer")
        out[start:stop] = coeffs.astype(np.int64) & 1
    return ExtractResult(bits=BitStream.from_bits(out.ravel()),
                         blocks=blocks, discarded_bits=discarded)


def extract_naive(bits: BitStream, spec: ToeplitzSpec) -> ExtractResult:
    """Reference O(n*m) dense GF(2) multiply; use only at small sizes."""
    n, m = spec.input_block_bits, spec.output_block_bits
    if bits.bit_length < n:
        raise InsufficientInputError(
            f"need at least one {n}-bit block, got {bits.bit_length} bits")
    blocks = bits.bit_length // n
    discarded = bits.bit_length - blocks * n
    matrix = spec.matrix().astype(np.int64)
    x = bits.to_bits()[:blocks * n].reshape(blocks, n).astype(np.int64)
    y = (x @ matrix.T) & 1
    return ExtractResult(bits=BitStream.from_bits(y.astype(np.uint8).ravel()),
                         blocks=blocks, discarded_bits=discarded)


def bits_per_sample(adc_bits: int, spec: ToeplitzSpec) -> float:
    """Delivered random bits per raw sample after extraction."""
    return adc_bits * spec.output_block_bits / spec.input_block_bits


def read_seed_file(path, n: int, m: int) -> ToeplitzSpec:
    """Load a Toeplitz seed: raw bytes, MSB first, pad bits ignored."""
    n, m = int(n), int(m)
    need_bits = n + m - 1
    need_bytes = (need_bits + 7) // 8
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) != need_bytes:
        raise FormatError(
            f"seed file {path} holds {len(raw)} bytes; n={n}, m={m} needs exactly "
            f"{need_bytes}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=need_bits)
    return ToeplitzSpec(input_block_bits=n, output_block_bits=m, seed_bits=bits)
