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

from . import rng
from .errors import (FormatError, InsufficientEntropyError, InsufficientInputError,
                     ParameterError, check_choice, check_scalar)

DEFAULT_EPSILON = 2.0 ** -50

#: How ``derive_params`` sizes m: the leftover-hash-lemma bound or the plain rate.
MODES = ("lemma", "ratio")


def bit_array(bits, name: str = "bits") -> np.ndarray:
    """``bits`` as a 1-D uint8 array of 0/1 values; a uint8 array is not copied."""
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ParameterError(f"{name} must be 1-D")
    if arr.dtype == np.uint8:
        valid = arr.size == 0 or arr.max() <= 1
    else:
        valid = np.all((arr == 0) | (arr == 1))
        arr = arr.astype(np.uint8)
    if not valid:
        raise ParameterError(f"{name} must be 0 or 1")
    return arr


@dataclass(frozen=True)
class BitStream:
    """Packed bits, most-significant-bit first within each byte."""

    data: bytes = field(repr=False)
    bit_length: int

    def __post_init__(self):
        n = check_scalar("bit_length", self.bit_length, bounds=(0, None))
        raw = bytes(self.data)
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
        arr = bit_array(bits)
        return cls(data=np.packbits(arr).tobytes(), bit_length=arr.size)

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
        n = check_scalar("input_block_bits", self.input_block_bits, bounds=(1, None))
        m = check_scalar("output_block_bits", self.output_block_bits, bounds=(1, n))
        seed = bit_array(self.seed_bits, "seed bits")
        if seed.size != n + m - 1:
            raise ParameterError(
                f"seed must have exactly n + m - 1 = {n + m - 1} bits, got {seed.size}")
        object.__setattr__(self, "input_block_bits", n)
        object.__setattr__(self, "output_block_bits", m)
        object.__setattr__(self, "seed_bits", seed)

    @classmethod
    def from_rng(cls, n: int, m: int, seed: int,
                 stream: int = rng.STREAM_EXTRACTOR_SEED) -> "ToeplitzSpec":
        """Seed bits from (seed, stream); the default is the extractor seed's stream."""
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
    if not (0.0 < rate <= 1.0):
        raise ParameterError(f"min_entropy_rate must be in (0, 1], got {rate}")
    n = check_scalar("n", n, bounds=(1, None))
    if check_choice("extraction mode", mode, MODES) == "lemma":
        if not (0.0 < epsilon < 1.0):
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        m = math.floor(n * rate + 2.0 * math.log2(epsilon))   # finite for any epsilon > 0
    else:
        m = math.floor(n * rate)
    if m < 1:
        raise InsufficientEntropyError(
            f"derived output length {m} <= 0: entropy rate {rate} over {n}-bit "
            "blocks cannot fund extraction at this epsilon")
    return n, m


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


#: Bytes of one FFT chunk's padded rows (blocks x L floats), at least one
#: block.  The working set is a few arrays of that size whatever n is; at
#: n = 4000 a float32 chunk holds 32 blocks.  Smaller chunks stay in cache:
#: 1 MB hashed faster than 4 MB or 16 MB, in float32 and in float64.
_CHUNK_BYTES = 1 << 20

#: Rounding guard: an exact coefficient is an integer, so a computed one
#: within 0.25 of it rounds back to it.
_GUARD = 0.25

#: c of the a-priori error bound c * u * log2(L) * ||x||_2 * ||s||_2 on any
#: coefficient of the FFT product.  Higham, Accuracy and Stability of
#: Numerical Algorithms, 2nd ed., Thm 24.2: a length-L FFT has normwise
#: relative error at most log2(L) * eta, eta = mu + gamma_4 * (sqrt(2) + mu),
#: so eta ~ (1 + 4 sqrt(2)) u with twiddle factors accurate to mu = u.  A
#: transform error e feeds one coefficient as e convolved with the other
#: operand, at most ||e||_2 times that operand's norm (Cauchy-Schwarz).  Three
#: transforms give 3 (1 + 4 sqrt(2)) = 19.97; 24 also covers the pointwise
#: complex product (sqrt(2) gamma_2) and second-order terms.
_FFT_ERROR_C = 24.0


def _fft_dtype(spec: ToeplitzSpec, size: int):
    """float32 when the a-priori bound on the FFT product's error, with
    ||x||_2 <= sqrt(n) and ||s||_2 = sqrt(popcount(seed)), is below the
    rounding guard in single precision; float64 otherwise."""
    norms = math.sqrt(spec.input_block_bits * int(np.count_nonzero(spec.seed_bits)))
    bound = _FFT_ERROR_C * 2.0 ** -24 * math.log2(size) * norms
    return np.float32 if bound < _GUARD else np.float64


def extract(bits: BitStream, spec: ToeplitzSpec) -> ExtractResult:
    """Hash consecutive n-bit blocks to m-bit blocks with the seeded matrix.

    Output block y = T.x is coefficients n-1 .. n+m-2 of the polynomial
    product seed * x, reduced mod 2.  The product is a real circular
    convolution of length L >= n + m - 1, computed by rFFT over chunks of
    whole blocks; at that length the needed coefficients do not alias.
    The exact coefficients are integers in [0, n].  The transforms run in
    float32 when the a-priori error bound of ``_fft_dtype`` is below 0.25
    (true at the default n = 4000, m = 3820: the bound is 0.07 and the
    largest residue measured 2.4e-4), else in float64, where the bound is
    about 5e-9 even at n = 1e5.  Either way a residue of 0.25 or more
    raises FloatingPointError instead of emitting bits.  The chunks run on
    ``rng.map_blocks``, each into its own rows of the output.

    The trailing partial block is discarded (its size is reported, never
    zero-padded into a biased block).  Output blocks appear in input order.
    """
    # Imported here, so a run that never hashes starts without scipy.
    # numpy.fft is no substitute: on the 32-row float32 chunks at n = 4000
    # it took 2.2-2.8 times as long as scipy.fft, which batches the rows.
    from scipy.fft import irfft, next_fast_len, rfft

    n, m = spec.input_block_bits, spec.output_block_bits
    if bits.bit_length < n:
        raise InsufficientInputError(
            f"need at least one {n}-bit block, got {bits.bit_length} bits")
    blocks = bits.bit_length // n
    discarded = bits.bit_length - blocks * n
    size = next_fast_len(n + m - 1, real=True)
    dtype = _fft_dtype(spec, size)
    chunk = max(1, _CHUNK_BYTES // (size * np.dtype(dtype).itemsize))
    seed_spectrum = rfft(spec.seed_bits.astype(dtype), size)
    packed = np.frombuffer(bits.data, dtype=np.uint8)
    out = np.empty((blocks, m), dtype=np.uint8)

    def hash_chunk(start: int) -> None:
        stop = min(start + chunk, blocks)
        lo, hi = start * n, stop * n
        x = np.unpackbits(packed[lo // 8:(hi + 7) // 8],
                          count=lo % 8 + hi - lo)[lo % 8:]
        x = x.reshape(stop - start, n).astype(dtype)
        conv = irfft(rfft(x, size, axis=1) * seed_spectrum, size,
                     axis=1)[:, n - 1:n + m - 1]
        coeffs = np.rint(conv)
        if np.max(np.abs(conv - coeffs)) >= _GUARD:
            raise FloatingPointError(
                "Toeplitz FFT product is not within 0.25 of an integer")
        out[start:stop] = coeffs.astype(np.int64) & 1

    rng.map_blocks(hash_chunk, range(0, blocks, chunk))
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


def bits_per_sample(bits_per_symbol: int, spec: ToeplitzSpec) -> float:
    """Delivered bits per raw sample, (m / n) * the phase symbol's (not the ADC's) bits."""
    return (spec.output_block_bits / spec.input_block_bits) * bits_per_symbol


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
    bits = BitStream(data=raw, bit_length=8 * len(raw)).to_bits()[:need_bits]
    return ToeplitzSpec(input_block_bits=n, output_block_bits=m, seed_bits=bits)
