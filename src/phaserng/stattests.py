"""Statistical randomness test battery.

Eight tests in the style of the public SP 800-22 suite: monobit,
block-frequency, runs, longest-run-of-ones, cumulative sums (forward and
backward), serial (two statistics), approximate entropy, and the DFT
spectral test.  Each returns one or two p-values; the battery layer adds
the two multi-sequence acceptance gates: pass proportion against a
confidence bound, and a chi-square uniformity check of the p-values.

The seven remaining tests of the 15-test public suite (universal,
linear-complexity, templates, random excursions and variant, matrix rank)
are intentionally not implemented and are named in every report.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .config import TestConfig
from .errors import ParameterError, SequenceLengthError, check_scalar
from .extractor import _FFT_ERROR_C, BitStream, bit_array

#: The battery's p-value streams, in report order.
STREAMS = ("monobit", "block-frequency", "runs", "longest-run",
           "cumulative-sums-forward", "cumulative-sums-backward",
           "serial-first", "serial-second", "approximate-entropy", "dft-spectral")

#: Suite members everyone expects that this battery deliberately omits.
NOT_IMPLEMENTED = ("universal", "linear-complexity", "non-overlapping-template",
                   "overlapping-template", "random-excursions",
                   "random-excursions-variant", "binary-matrix-rank")

#: A stream's p-values look uniform when their chi-square p exceeds this
#: (SP 800-22's fixed threshold).
UNIFORMITY_THRESHOLD = 1e-4

# Positions per window of the pattern count, and bytes per window of the
# cumulative-sums walk and the longest-run scan: their temporaries stay
# under 2 MB at any sequence length.
_WINDOW = 1 << 16

# Rows of n1 points in which the DFT's column transforms are written and run.
_DFT_ROWS = 64

# Longest-run-of-ones reference distributions: (min bits, block size M,
# lowest class, highest class, class probabilities), as SP 800-22 section
# 3.4 publishes them.  The M = 8 and M = 128 rows are the exact
# probabilities to four digits; the M = 10^4 row is the published
# approximation.
_LONGEST_RUN_TABLE = (
    (750_000, 10_000, 10, 16,
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6_272, 128, 4, 9,
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, 1, 4,
     (0.2148, 0.3672, 0.2305, 0.1875)),
)


def _byte_tables() -> tuple[np.ndarray, ...]:
    """Tables over the 256 bytes, bits MSB first: the +-1 walk's sum and its
    highest and lowest prefix minus that sum; the leading, trailing and
    longest run of ones."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    walk = np.cumsum(2 * bits.astype(np.int32) - 1, axis=1, dtype=np.int32)
    run, inner = np.zeros(256, np.uint8), np.zeros(256, np.uint8)
    for column in bits.T:
        run = (run + 1) * column
        np.maximum(inner, run, out=inner)
    total = walk[:, -1]
    return (total, walk.max(axis=1) - total, walk.min(axis=1) - total,
            np.cumprod(bits, axis=1).sum(axis=1, dtype=np.uint8), run, inner)


_WALK_SUM, _WALK_HIGH, _WALK_LOW, _LEAD, _TRAIL, _INNER = _byte_tables()


def _gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x), for a > 0.

    The series for P = 1 - Q when x < a + 1, else Lentz's continued
    fraction for Q (Numerical Recipes, 3rd ed., section 6.2); each runs
    until a term no longer moves the result.  The prefactor
    x^a e^-x / Gamma(a) comes from ``math.lgamma``.  As in
    ``scipy.special.gammaincc``, Q(a, 0) = 1, Q(a, inf) = 0, and x < 0
    gives NaN.
    """
    a, x = float(a), float(x)
    if not x >= 0.0:
        return math.nan
    if x == 0.0 or x == math.inf:
        return float(x == 0.0)
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        k, term, total = a, 1.0 / a, 1.0 / a
        while term > total * 2.0 ** -53:
            k += 1.0
            term *= x / k
            total += term
        return 1.0 - front * total
    # Lentz's guards against a vanishing denominator are left out: from
    # x >= a + 1 on, none fell below 3.5 for a in [0.01, 1e6], x to a + 1e5.
    b = x + 1.0 - a
    c, d = math.inf, 1.0 / b
    fraction, i = d, 0
    while True:
        i += 1
        an, b = i * (a - i), b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        fraction *= c * d
        if abs(c * d - 1.0) <= 2.0 ** -52:
            return front * fraction


def _as_bits(bits) -> np.ndarray:
    """Validated 0/1 uint8 view of ``bits``; a uint8 array is not copied."""
    if isinstance(bits, BitStream):
        return bits.to_bits()
    arr = bit_array(bits)
    if arr.size == 0:
        raise ParameterError("bits must be non-empty")
    return arr


def _packed(bits) -> tuple[np.ndarray, int]:
    """Validated ``bits`` as MSB-first bytes, pad bits zero, and their count.

    A ``BitStream``'s bytes are read in place; anything else is packed.
    """
    if isinstance(bits, BitStream):
        return np.frombuffer(bits.data, dtype=np.uint8), bits.bit_length
    arr = _as_bits(bits)
    return np.packbits(arr), arr.size


def _require(n: int, minimum: int, test: str) -> None:
    if n < minimum:
        raise SequenceLengthError(
            f"{test} needs at least {minimum} bits, got {n}")


def monobit(bits) -> list[float]:
    """Balance of ones vs zeros: p = erfc(|S|/sqrt(2n)) for S = sum(2b-1)."""
    p, n = _packed(bits)
    _require(n, 10, "monobit")
    s = 2.0 * int(np.bitwise_count(p).sum()) - n
    return [math.erfc(abs(s) / math.sqrt(n) / math.sqrt(2.0))]


def block_frequency(bits, block: int = 128) -> list[float]:
    """Per-block bias chi-square over blocks of ``block`` bits.

    The ones before bit k are the popcounts of the k // 8 bytes before it
    plus that of the top k % 8 bits of byte k // 8.  Between two block
    edges the byte popcounts are summed by ``np.add.reduceat``, which
    gives one byte's count, not 0, for two edges in one byte.
    """
    p, n = _packed(bits)
    block = check_scalar("block", block, bounds=(1, None))
    _require(n, max(10, block), "block-frequency")
    n_blocks = n // block
    edge, part = np.divmod(np.arange(n_blocks + 1) * block, 8)
    between = np.add.reduceat(np.append(np.bitwise_count(p), 0), edge, dtype=np.int64)
    top = np.bitwise_count(p[np.minimum(edge, p.size - 1)] & (0xFF00 >> part)).astype(np.int64)
    pi = (between[:-1] * (np.diff(edge) > 0) + np.diff(top)) / block
    chi_sq = 4.0 * block * float(np.sum((pi - 0.5) ** 2))
    return [_gammaincc(n_blocks / 2.0, chi_sq / 2.0)]


def runs(bits) -> list[float]:
    """Total number of runs vs its expectation under independence.

    Following the published procedure, a sequence whose ones fraction
    deviates from 1/2 by at least 2/sqrt(n) gets p = 0 outright.  The
    changes b_i != b_(i+1) are the ones of the bytes XOR the bytes moved
    one bit on, which reads a zero after b_(n-1): its change is taken off.
    """
    p, n = _packed(bits)
    _require(n, 10, "runs")
    ones = int(np.bitwise_count(p).sum())
    if abs(2 * ones - n) >= 4.0 * math.sqrt(n):    # |pi - 1/2| >= 2/sqrt(n)
        return [0.0]
    changes = p << 1
    changes[:-1] |= p[1:] >> 7
    changes ^= p
    v = 1 + int(np.bitwise_count(changes).sum()) - (int(p[-1]) >> (7 - (n - 1) % 8) & 1)
    spread = ones * (n - ones)     # n^2 * pi * (1 - pi), the complement's too
    num = abs(v - 2 * spread / n)
    den = 2.0 * math.sqrt(2.0 * n) * (spread / (n * n))
    return [math.erfc(num / den)]


def _longest_runs(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones in each row of packed bytes.

    A run is within one byte, or a trailing run plus the next byte's
    leading run, or it holds a chain of 0xFF bytes: 8 bits a byte plus
    the trailing run before the chain and the leading run after it, where
    those bytes are in its row.
    """
    rows, width = blocks.shape
    flat = blocks.ravel()
    lead = np.take(_LEAD, flat)
    lead[::width] = 0
    run = np.take(_TRAIL, flat)
    run[:-1] += lead[1:]
    np.maximum(run, np.take(_INNER, flat), out=run)
    longest = run.reshape(rows, width).max(axis=1).astype(np.intp)
    full = np.flatnonzero(flat == 0xFF)
    if full.size:
        first = np.concatenate(([True], (np.diff(full) != 1) | (full[1:] % width == 0)))
        start, stop = full[first], full[np.append(first[1:], True)]
        run = 8 * (stop - start + 1)
        run += np.where(start % width > 0, _TRAIL[flat[start - 1]], 0)
        run += np.where(stop % width < width - 1, _LEAD[flat[(stop + 1) % flat.size]], 0)
        np.maximum.at(longest, start // width, run)
    return longest


def longest_run(bits) -> list[float]:
    """Distribution of per-block longest runs of ones (blocks of whole bytes)."""
    p, n = _packed(bits)
    _require(n, 128, "longest-run")
    for min_bits, block, lo, hi, probs in _LONGEST_RUN_TABLE:
        if n >= min_bits:
            break
    n_blocks, width = n // block, block // 8
    blocks = p[:n_blocks * width].reshape(n_blocks, width)
    rows = max(1, 8 * _WINDOW // block)
    lengths = np.concatenate([_longest_runs(blocks[r:r + rows])
                              for r in range(0, n_blocks, rows)])
    classes = np.clip(lengths, lo, hi) - lo
    counts = np.bincount(classes, minlength=hi - lo + 1)
    expected = n_blocks * np.asarray(probs)
    chi_sq = float(np.sum((counts - expected) ** 2 / expected))
    return [_gammaincc(len(probs) / 2.0 - 0.5, chi_sq / 2.0)]


def _cusum_p(z: int, n: int) -> float:
    if z == 0:
        return 1.0
    root = math.sqrt(n)
    k_max = int(10.0 * root / (4.0 * z)) + 2   # terms beyond are < 1e-20
    ks = range(-k_max, k_max + 1)

    def ndtr(j: float) -> float:   # the standard normal CDF at j * z / sqrt(n)
        return 0.5 * math.erfc(-(j * z / root) / math.sqrt(2.0))

    sum1 = math.fsum(ndtr(4.0 * k + 1.0) - ndtr(4.0 * k - 1.0) for k in ks)
    sum2 = math.fsum(ndtr(4.0 * k + 3.0) - ndtr(4.0 * k + 1.0) for k in ks)
    return 1.0 - sum1 + sum2


def cumulative_sums(bits) -> list[float]:
    """Maximum partial-sum excursion, forward and backward.

    One walk S_1..S_n serves both directions: the backward partial sums
    are S_n - S_j for j = 0..n-1, so their largest magnitude follows from
    the total and the extremes of the forward walk (S_0 = 0 included).
    The walk goes a byte at a time, window by window, carrying its total,
    min and max: the walk at each byte's end plus the byte's highest and
    lowest prefix relative to its end.  A partial last byte goes bit by bit.
    """
    p, n = _packed(bits)
    _require(n, 10, "cumulative-sums")
    low = high = total = 0
    whole = n // 8
    for start in range(0, whole, _WINDOW):
        window = p[start:min(start + _WINDOW, whole)].astype(np.intp)
        walk = np.cumsum(np.take(_WALK_SUM, window), dtype=np.int32)
        high = max(high, total + int((walk + np.take(_WALK_HIGH, window)).max()))
        low = min(low, total + int((walk + np.take(_WALK_LOW, window)).min()))
        total += int(walk[-1])
    for bit in np.unpackbits(p[whole:], count=n % 8).tolist():
        total += 2 * bit - 1
        high, low = max(high, total), min(low, total)
    fwd, bwd = max(high, -low), max(total - low, high - total)
    return [_cusum_p(fwd, n), _cusum_p(bwd, n)]


def _pattern_counts(bits, m: int) -> np.ndarray:
    """Counts of all 2^m overlapping m-bit patterns, circularly extended, m <= 25.

    The m - 1 bits after the last wrap to the head, packed on from the
    last bit.  The big-endian 32-bit word at each byte then holds the
    patterns that start at its eight bits, the t-th at shift 32 - m - t.
    The bytes go window by window into one table by ``np.add.at``, which
    zeroes no table per window as ``np.bincount`` does; a partial last
    byte's patterns go one by one.
    """
    p, n = _packed(bits)
    whole, part = divmod(n, 8)
    tail = np.concatenate([np.unpackbits(p[whole:], count=part),
                           np.unpackbits(p[:3], count=m - 1)])
    ext = np.concatenate([p[:whole], np.packbits(tail), np.zeros(3, dtype=np.uint8)])
    mask, shifts = (1 << m) - 1, 32 - m - np.arange(8, dtype=np.uint32)[:, None]
    total = np.zeros(1 << m, dtype=np.int64)
    for start in range(0, whole, _WINDOW // 8):
        words = np.ndarray((min(_WINDOW // 8, whole - start),), ">u4", ext, start, (1,))
        codes = words.astype(np.uint32) >> shifts
        codes &= mask
        np.add.at(total, codes, 1)
    word = int.from_bytes(ext[whole:whole + 4].tobytes(), "big")
    for shift in shifts[:part, 0].tolist():
        total[word >> shift & mask] += 1
    return total


def _leading_counts(bits, n: int, m: int, counts: np.ndarray | None) -> np.ndarray:
    """m-bit pattern counts of ``bits``, summed from wider ``counts`` if given.

    Summing the counts of a wider circular pattern over its trailing bits
    gives the exact counts of its leading m bits.
    """
    if counts is None:
        return _pattern_counts(bits, m)
    size = counts.size
    if size < 1 << m or size & (size - 1) or counts.sum() != n:
        raise ParameterError(
            f"counts must be the circular pattern counts of these bits, "
            f"at least {m} bits wide")
    return counts.reshape(1 << m, -1).sum(axis=1)


def _psi_sq(counts: np.ndarray, n: int) -> float:
    # sum(c^2) <= n^2 as an exact integer: a float64 sum rounds past 2^53.
    squares = (int(np.dot(counts, counts)) if n * n < 1 << 63
               else sum(c * c for c in counts.tolist()))
    return counts.size / n * float(squares) - n


def serial(bits, pattern_bits: int = 16, *,
           counts: np.ndarray | None = None) -> list[float]:
    """Overlapping m-bit pattern uniformity, first and second differences.

    ``counts`` may carry ``_pattern_counts(bits, k)`` for any k >= m, so a
    battery counts patterns once for this test and approximate entropy.
    """
    _, n = _packed(bits)
    m = check_scalar("pattern_bits", pattern_bits, bounds=(2, None))
    _require(n, 1 << (m + 2), "serial")
    counts_m = _leading_counts(bits, n, m, counts)
    counts_m1 = counts_m[0::2] + counts_m[1::2]
    counts_m2 = counts_m1[0::2] + counts_m1[1::2]
    psi_m = _psi_sq(counts_m, n)
    psi_m1 = _psi_sq(counts_m1, n)
    psi_m2 = _psi_sq(counts_m2, n)
    d1 = psi_m - psi_m1
    d2 = psi_m - 2.0 * psi_m1 + psi_m2
    return [_gammaincc(2.0 ** (m - 2), d1 / 2.0),
            _gammaincc(2.0 ** (m - 3), d2 / 2.0)]


def approximate_entropy(bits, pattern_bits: int = 10, *,
                        counts: np.ndarray | None = None) -> list[float]:
    """phi(m) - phi(m+1) compared against log 2.

    ``counts`` may carry ``_pattern_counts(bits, k)`` for any k >= m + 1.
    """
    _, n = _packed(bits)
    m = check_scalar("pattern_bits", pattern_bits, bounds=(0, None))
    _require(n, 1 << (m + 6), "approximate-entropy")

    def phi(c: np.ndarray) -> float:
        c = c[c > 0].astype(np.float64) / n
        return float(np.sum(c * np.log(c)))

    counts_m1 = _leading_counts(bits, n, m + 1, counts)
    ap_en = phi(counts_m1[0::2] + counts_m1[1::2]) - phi(counts_m1)
    chi_sq = 2.0 * n * (math.log(2.0) - ap_en)
    return [_gammaincc(2.0 ** (m - 1), chi_sq / 2.0)]


def _dft_split(n: int) -> tuple[int, int]:
    """(n1, n2) with n = n1 * n2 and n2 the largest divisor of n up to sqrt(n)."""
    n2 = next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)
    return n // n2, n2


def _dft_work(n: int, work=None) -> tuple[np.ndarray, ...]:
    """The ``(rows, grid, twiddles, mask)`` of an n-bit DFT: new, or ``work`` checked.

    For the split n = n1 * n2 of ``_dft_split``, ``rows`` is a float64
    buffer of min(``_DFT_ROWS``, n2) rows of n1 points, and the other three
    have shape (n2, n1 // 2 + 1): ``grid`` is the complex128 spectrum,
    ``twiddles`` holds w_n^(j2 k1), w_n = e^(-2 pi i / n), whose angle is
    taken from (j2 k1) mod n in integers, and the boolean ``mask`` picks
    each k < n // 2 exactly once.  Cell (k2, k1) of the grid holds X[k] for
    k = k1 + n1 k2.  The mask takes it where k < n // 2, and where
    0 < 2 k1 < n1 and n - k < n // 2: that cell stands for n - k, whose
    residue mod n1 is above n1 // 2, so it is not on the grid, and
    |X[n - k]| = |X[k]| for real input.  No cell is both.
    """
    n1, n2 = _dft_split(n)
    shape, rows = (n2, n1 // 2 + 1), (min(_DFT_ROWS, n2), n1)
    if work is None:
        j2 = np.arange(n2, dtype=np.int64)[:, None]
        k1 = np.arange(shape[1], dtype=np.int64)
        turns = j2 * k1
        turns %= n
        angle = turns * (-2.0 * math.pi / n)
        twiddles = np.empty(shape, dtype=np.complex128)
        np.cos(angle, out=twiddles.real)
        np.sin(angle, out=twiddles.imag)
        k = k1 + n1 * j2
        mask = (k < n // 2) | ((0 < 2 * k1) & (2 * k1 < n1) & (n - k < n // 2))
        return np.empty(rows), np.empty(shape, dtype=np.complex128), twiddles, mask
    try:
        rows_, grid, twiddles, mask = work
    except (TypeError, ValueError):
        raise ParameterError("work must be a tuple (rows, grid, twiddles, mask)") from None
    for name, arr, dtype, size in (("rows", rows_, np.float64, rows),
                                   ("grid", grid, np.complex128, shape),
                                   ("twiddles", twiddles, np.complex128, shape),
                                   ("mask", mask, np.bool_, shape)):
        if (not isinstance(arr, np.ndarray) or arr.dtype != dtype
                or arr.shape != size or not arr.flags.c_contiguous):
            got = (f"{arr.dtype} {arr.shape}" if isinstance(arr, np.ndarray)
                   else type(arr).__name__)
            raise ParameterError(
                f"work {name} must be a C-contiguous {np.dtype(dtype).name} array "
                f"of shape {size} for {n} bits, got {got}")
    return rows_, grid, twiddles, mask


def _dft_margin(n: int) -> float:
    """How far two float64 transforms of n points of +-1 may disagree on any |X_k|.

    Each is within ``_FFT_ERROR_C`` * u * log2(n) * ||X||_2 of the exact
    spectrum (Higham, Thm 24.2, as in ``extractor``), and ||X||_2 = n for
    +-1 input (Parseval).
    """
    return 2.0 * _FFT_ERROR_C * 2.0 ** -53 * math.log2(n) * n


def _rfft_count(b: np.ndarray, grid: np.ndarray, threshold: float) -> int:
    """The count below ``threshold`` from one n-point ``np.fft.rfft`` of ``b``.

    The n // 2 + 1 coefficients fit in the grid's cells.
    """
    n = b.size
    x = 2.0 * b - 1.0
    spectrum = np.fft.rfft(x, out=grid.reshape(-1)[:n // 2 + 1])
    return int(np.count_nonzero(np.abs(spectrum[:n // 2], out=x[:n // 2]) < threshold))


def _dft_count(b: np.ndarray, work: tuple[np.ndarray, ...]) -> int:
    """How many k < n // 2 have |X_k| below the 95% threshold T.

    The spectrum is a six-step transform (Bailey, "FFTs in external or
    hierarchical memory", J. Supercomputing 4, 1990) on the checked
    ``work``: the columns of x as an n1 x n2 matrix go as +-1 into the
    rows buffer, and their n1-point rffts into the grid's rows, a chunk at
    a time; then the twiddles, and n2-point ffts down the grid's columns,
    in place.  A prime n has n2 = 1, a single rfft.  The masked moduli are
    counted, by chunks of rows, below T - d and below T + d,
    d = ``_dft_margin(n)``.  When
    the two counts differ, some modulus is too close to T to be sure of
    the side one n-point rfft puts it on, and the sequence is counted
    again with that rfft; so the count is always the single transform's.
    """
    n = b.size
    rows, grid, twiddles, mask = work
    threshold = math.sqrt(n * math.log(1.0 / 0.05))
    columns, step = b.reshape(-1, grid.shape[0]).T, rows.shape[0]
    for r in range(0, grid.shape[0], step):
        part = columns[r:r + step]
        chunk = rows[:part.shape[0]]
        np.multiply(part, 2.0, out=chunk)
        chunk -= 1.0
        np.fft.rfft(chunk, axis=1, out=grid[r:r + step])
    grid *= twiddles
    np.fft.fft(grid, axis=0, out=grid)
    margin, high, low = _dft_margin(n), 0, 0
    for r in range(0, grid.shape[0], step):
        cells = grid[r:r + step]
        moduli = np.abs(cells, out=rows.reshape(-1)[:cells.size].reshape(cells.shape))
        high += int(np.count_nonzero((moduli < threshold + margin) & mask[r:r + step]))
        low += int(np.count_nonzero((moduli < threshold - margin) & mask[r:r + step]))
    return high if high == low else _rfft_count(b, grid, threshold)


def dft_spectral(bits, *, work=None) -> list[float]:
    """Count of low-magnitude DFT peaks vs the 95% threshold.

    The count is ``_dft_count``'s, equal to one n-point rfft's.  ``work``
    may carry the tuple ``_dft_work(n)`` for the call to overwrite its
    ``rows`` and ``grid`` instead of allocating its own and building the
    twiddles and mask; a battery passes one tuple per thread to every
    sequence that thread takes.
    """
    b = _as_bits(bits)
    _require(b.size, 1000, "dft-spectral")
    n = b.size
    count = _dft_count(b, _dft_work(n, work))
    n0 = 0.95 * n / 2.0
    d = (count - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return [math.erfc(abs(d) / math.sqrt(2.0))]


def _all_but_dft(bits, config: TestConfig) -> list[float]:
    """The p-values of every stream but the last, ``dft-spectral``.

    Serial and approximate entropy share one circular pattern count.
    """
    counts = _pattern_counts(
        bits, max(config.serial_pattern_bits, config.approx_entropy_pattern_bits + 1))
    return (monobit(bits) + block_frequency(bits, config.block_frequency_block)
            + runs(bits) + longest_run(bits) + cumulative_sums(bits)
            + serial(bits, config.serial_pattern_bits, counts=counts)
            + approximate_entropy(bits, config.approx_entropy_pattern_bits, counts=counts))


def run_sequence(bits, config: TestConfig) -> list[float]:
    """One sequence's p-values, one per entry of ``STREAMS``."""
    b = _as_bits(bits)
    return _all_but_dft(BitStream.from_bits(b), config) + dft_spectral(b)


def uniformity_p(p_values: np.ndarray) -> float:
    """Chi-square of the p-values against uniform [0, 1) over 10 bins."""
    n = p_values.size
    counts = np.bincount(np.minimum((p_values * 10).astype(np.int64), 9),
                         minlength=10)
    expected = n / 10.0
    chi_sq = float(np.sum((counts - expected) ** 2 / expected))
    return _gammaincc(4.5, chi_sq / 2.0)


@dataclass(frozen=True)
class StreamResult:
    """Acceptance bookkeeping for one p-value stream of one test.

    ``uniformity_p`` is None below 10 p-values, where it is not computed.
    """

    name: str
    p_values: np.ndarray = field(repr=False)
    proportion: float
    proportion_bound: float
    proportion_passed: bool
    uniformity_p: float | None
    uniformity_passed: bool

    @property
    def passed(self) -> bool:
        return self.proportion_passed and self.uniformity_passed


@dataclass(frozen=True)
class TestReport:
    """Per-stream verdicts plus the global one."""

    results: tuple[StreamResult, ...]
    config: TestConfig

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "alpha": self.config.alpha,
            "sequence_bits": self.config.sequence_bits,
            "sequence_count": self.config.sequence_count,
            "not_implemented": list(NOT_IMPLEMENTED),
            "passed": self.passed,
            "streams": [
                {
                    "name": r.name,
                    "proportion": r.proportion,
                    "proportion_bound": r.proportion_bound,
                    "uniformity_p": r.uniformity_p,
                    "passed": r.passed,
                    "p_values": [float(p) for p in r.p_values],
                }
                for r in self.results
            ],
        }


def run_battery(sequences, config: TestConfig) -> TestReport:
    """Run every implemented test over all sequences and gate the results.

    All sequences must have exactly ``config.sequence_bits`` bits.  One
    ``rng.map_blocks`` call runs the items ``None``, the seven tests other
    than ``dft_spectral`` over every sequence packed in order, and each
    sequence's index, its DFT: one thread runs the seven tests while the
    others take DFTs, then all take the DFTs left.  The first DFT builds the
    ``_dft_work`` tuple; each other thread makes its own rows and grid and
    shares the twiddles and mask.  A failed DFT also stops the seven tests.
    A stream passes when its pass proportion exceeds the 3-sigma bound and
    its p-values look uniform at ``UNIFORMITY_THRESHOLD``.
    """
    arrays = [_as_bits(s) for s in sequences]
    if len(arrays) != config.sequence_count:
        raise ParameterError(
            f"expected {config.sequence_count} sequences, got {len(arrays)}")
    for arr in arrays:
        if arr.size != config.sequence_bits:
            raise ParameterError(
                f"all sequences must have {config.sequence_bits} bits; "
                f"found one with {arr.size}")

    table = np.empty((len(arrays), len(STREAMS)), dtype=np.float64)
    dft_failed, lock, own, built = threading.Event(), threading.Lock(), threading.local(), []

    def work() -> tuple[np.ndarray, ...]:
        with lock:
            if not built:
                built.append(_dft_work(config.sequence_bits))
                return built[0]
        rows, grid, twiddles, mask = built[0]
        return np.empty_like(rows), np.empty_like(grid), twiddles, mask

    def item(i: int | None) -> None:
        if i is None:
            for j, arr in enumerate(arrays):
                if dft_failed.is_set():
                    return
                table[j, :-1] = _all_but_dft(BitStream.from_bits(arr), config)
            return
        try:
            if not hasattr(own, "work"):
                own.work = work()
            table[i, -1] = dft_spectral(arrays[i], work=own.work)[0]
        except BaseException:
            dft_failed.set()
            raise

    rng.map_blocks(item, [None, *range(len(arrays))])

    bound = config.proportion_bound()
    results = []
    for name, p_values in zip(STREAMS, np.ascontiguousarray(table.T)):
        proportion = float(np.mean(p_values >= config.alpha))
        unif = uniformity_p(p_values) if p_values.size >= 10 else None
        results.append(StreamResult(
            name=name, p_values=p_values, proportion=proportion,
            proportion_bound=bound, proportion_passed=proportion > bound,
            uniformity_p=unif,
            uniformity_passed=unif is None or unif > UNIFORMITY_THRESHOLD))
    return TestReport(results=tuple(results), config=config)
