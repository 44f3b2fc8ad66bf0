"""Toeplitz-hashing randomness extraction over GF(2).

A seeded n-by-m Toeplitz matrix T (T[i, j] = seed[i - j + n - 1]) maps
each n-bit input block to an m-bit output block, y = T.x over GF(2).
Output length per block is chosen from the input min-entropy rate less
the leftover-hash-lemma margin of an explicit security parameter.

The production multiply is a chunked real FFT convolution with the seed in
float64.  A block's product coefficients are integers in [0, n], so one
transform row carries k blocks as the base-2^s digits of one integer
(Kronecker substitution), s = n.bit_length(): k is the most blocks whose
packed product stays below 2^53 and within the a-priori FFT error bound of
the 0.25 rounding guard.  A naive O(n*m) multiply is kept as the test
oracle.  Before hashing, the pipeline tests the configured min-entropy
rate against the largest symbol count (``check_count_claim``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import (FormatError, InsufficientEntropyError, InsufficientInputError,
                     ParameterError, check_choice, check_scalar)

#: Default security parameter: epsilon = 2^-EPSILON_EXPONENT.
EPSILON_EXPONENT = 50


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
        """0/1 matrix T[i, j] = seed[i - j + n - 1], a read-only view of the seed."""
        n, m = self.input_block_bits, self.output_block_bits
        return np.lib.stride_tricks.sliding_window_view(self.seed_bits, n)[:m, ::-1]


def derive_params(min_entropy_rate: float, n: int,
                  epsilon_exponent: int = EPSILON_EXPONENT,
                  mode: str = "lemma") -> tuple[int, int]:
    """Choose the output block length m for input blocks of n bits.

    The leftover-hash lemma pays 2*log2(1/epsilon) bits for a statistical
    distance of at most epsilon = 2^-epsilon_exponent, so
    m = floor(n*rate) - 2*epsilon_exponent, in integers.  Exponent 0 keeps
    the full entropy budget with no margin; ``mode="ratio"`` spells that.
    """
    rate = float(min_entropy_rate)
    if not (0.0 < rate <= 1.0):
        raise ParameterError(f"min_entropy_rate must be in (0, 1], got {rate}")
    n = check_scalar("n", n, bounds=(1, None))
    exponent = check_scalar("epsilon_exponent", epsilon_exponent, bounds=(0, None))
    if check_choice("extraction mode", mode, ("lemma", "ratio")) == "ratio":
        exponent = 0
    m = math.floor(n * rate) - 2 * exponent
    if m < 1:
        raise InsufficientEntropyError(
            f"derived output length {m} <= 0: entropy rate {rate} over {n}-bit "
            f"blocks cannot fund extraction at epsilon = 2^-{exponent}")
    return n, m


#: Significance of the symbol-count test: a rate claim whose largest symbol
#: count is less likely than this under the claim is refused.
COUNT_TEST_ALPHA = 0.01


def max_count_bound(symbols: int, largest: int, bits_per_symbol: int,
                    min_entropy_rate: float) -> float:
    """Bound on P(some symbol count >= ``largest``) under a rate claim.

    The claim "rate r" says no b-bit symbol has probability above
    p0 = 2^(-b r).  A union bound over the 2^b symbols and the Chernoff
    bound P(count >= c) <= exp(-N D(c/N || p0)), D the binary KL
    divergence, give min(1, 2^b exp(-N D)) for N ``symbols``; the bound is
    1 when c/N <= p0.
    """
    p0 = 2.0 ** (-bits_per_symbol * min_entropy_rate)
    if largest <= p0 * symbols:
        return 1.0
    q = largest / symbols
    divergence = q * math.log(q / p0)
    if q < 1.0:
        divergence += (1.0 - q) * (math.log1p(-q) - math.log1p(-p0))
    return min(1.0, 2.0 ** bits_per_symbol * math.exp(-symbols * divergence))


def check_count_claim(symbols: int, largest: int, bits_per_symbol: int,
                      min_entropy_rate: float) -> None:
    """InsufficientEntropyError when the largest of ``symbols`` symbol
    counts rejects the rate claim at ``COUNT_TEST_ALPHA``."""
    bound = max_count_bound(symbols, largest, bits_per_symbol, min_entropy_rate)
    if bound < COUNT_TEST_ALPHA:
        raise InsufficientEntropyError(
            f"a symbol occurs {largest} times in {symbols}; under "
            f"min_entropy_rate {min_entropy_rate} at {bits_per_symbol} bits per "
            f"symbol that has probability at most {bound:.3g} < {COUNT_TEST_ALPHA}")


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


#: Bytes of one FFT chunk's padded rows (rows x L float64s), at least one
#: row.  The working set is a few arrays of that size whatever n is; at
#: n = 4000 a chunk holds 16 rows of 3 blocks, 48 blocks.
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


def _layout(spec: ToeplitzSpec) -> tuple[int, int, int, int]:
    """(L, s, k, chunk): the FFT length, the digit width in bits, the blocks
    packed per FFT row and the blocks per chunk.

    Every coefficient of one block's product is an integer in [0, n], so
    below K = 2^s with s = n.bit_length().  k blocks packed as the base-K
    digits x_0 + K x_1 + ... + K^(k-1) x_(k-1) of one row have a product
    whose coefficients are the k products' digits, each at most n times
    D = 1 + K + ... + K^(k-1).  k is the largest count that keeps that
    below 2^53, so the float64 product is an exact integer, and that keeps
    the a-priori error bound, with ||x||_2 <= sqrt(n) D and ||s||_2 =
    sqrt(popcount(seed)), below the rounding guard.  The first condition
    alone stops k at an all-zero seed, where the bound is 0.  A chunk is
    ``_CHUNK_BYTES`` of float64 rows, at least one, of k blocks each.
    """
    n, m = spec.input_block_bits, spec.output_block_bits
    size = 1 << (n + m - 2).bit_length()
    s = n.bit_length()
    scale = (_FFT_ERROR_C * 2.0 ** -53 * math.log2(size)
             * math.sqrt(n * int(np.count_nonzero(spec.seed_bits))))
    k = 1
    while True:
        digits = ((1 << s * (k + 1)) - 1) // ((1 << s) - 1)   # D at k + 1
        if n * digits >= 1 << 53 or scale * digits >= _GUARD:
            break
        k += 1
    return size, s, k, k * max(1, _CHUNK_BYTES // (8 * size))


def extract(bits: BitStream, spec: ToeplitzSpec) -> ExtractResult:
    """Hash consecutive n-bit blocks to m-bit blocks with the seeded matrix.

    Output block y = T.x is coefficients n-1 .. n+m-2 of the polynomial
    product seed * x, reduced mod 2.  The product is a real circular
    convolution of length L, the smallest power of two >= n + m - 1,
    computed in float64 by rFFT over chunks of whole rows; at that length
    the needed coefficients do not alias.  The exact coefficients are
    integers in [0, n], so a row packs k blocks as base-2^s digits
    (``_layout``: k = 3 at the default n = 4000, m = 3820, where the
    a-priori bound is 2.3e-3 and the largest residue measured 1.9e-6;
    k = 2 at n = 1e5), and block j's parity is bit s*j of the row's
    rounded coefficient.  A residue of 0.25 or more raises
    FloatingPointError instead of emitting bits.  The chunks run on
    ``rng.map_blocks``, each into its own rows of the output.

    The trailing partial block is discarded (its size is reported, never
    zero-padded into a biased block); a last row with fewer than k blocks
    gets zero digits, whose products are dropped.  Output blocks appear in
    input order.
    """
    n, m = spec.input_block_bits, spec.output_block_bits
    if bits.bit_length < n:
        raise InsufficientInputError(
            f"need at least one {n}-bit block, got {bits.bit_length} bits")
    blocks = bits.bit_length // n
    discarded = bits.bit_length - blocks * n
    size, s, k, chunk = _layout(spec)
    weights = np.ldexp(1.0, s * np.arange(k))           # K^j, exact in float64
    shifts = s * np.arange(k, dtype=np.int64)[:, None]
    seed_spectrum = np.fft.rfft(spec.seed_bits.astype(np.float64), size)
    packed = np.frombuffer(bits.data, dtype=np.uint8)
    out = np.empty((blocks, m), dtype=np.uint8)

    def hash_chunk(start: int) -> None:
        stop = min(start + chunk, blocks)
        lo, hi = start * n, stop * n
        rows = -(-(stop - start) // k)
        x = np.zeros(rows * k * n, dtype=np.uint8)
        x[:hi - lo] = np.unpackbits(packed[lo // 8:(hi + 7) // 8],
                                    count=lo % 8 + hi - lo)[lo % 8:]
        row = weights @ x.reshape(rows, k, n)
        conv = np.fft.irfft(np.fft.rfft(row, size) * seed_spectrum,
                            size)[:, n - 1:n + m - 1]
        coeffs = np.rint(conv)
        if np.max(np.abs(conv - coeffs)) >= _GUARD:
            raise FloatingPointError(
                "Toeplitz FFT product is not within 0.25 of an integer")
        digits = (coeffs.astype(np.int64)[:, None, :] >> shifts) & 1
        out[start:stop] = digits.reshape(rows * k, m)[:stop - start]

    rng.map_blocks(hash_chunk, range(0, blocks, chunk))
    return ExtractResult(bits=BitStream.from_bits(out.ravel()),
                         blocks=blocks, discarded_bits=discarded)


def extract_naive(bits: BitStream, spec: ToeplitzSpec) -> ExtractResult:
    """Reference O(n*m) GF(2) multiply: the parity of the columns each block selects."""
    n = spec.input_block_bits
    if bits.bit_length < n:
        raise InsufficientInputError(
            f"need at least one {n}-bit block, got {bits.bit_length} bits")
    blocks = bits.bit_length // n
    discarded = bits.bit_length - blocks * n
    matrix = spec.matrix()
    x = bits.to_bits()[:blocks * n].reshape(blocks, n)
    y = [matrix[:, block == 1].sum(axis=1, dtype=np.int64) & 1 for block in x]
    return ExtractResult(bits=BitStream.from_bits(np.concatenate(y)),
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
