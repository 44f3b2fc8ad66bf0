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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

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

# Positions per window of the windowed kernels (pattern counts, cumulative
# sums, longest run): their temporaries stay a few MB at any sequence length.
_WINDOW = 1 << 16

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


def _require(bits: np.ndarray, minimum: int, test: str) -> None:
    if bits.size < minimum:
        raise SequenceLengthError(
            f"{test} needs at least {minimum} bits, got {bits.size}")


def monobit(bits) -> list[float]:
    """Balance of ones vs zeros: p = erfc(|S|/sqrt(2n)) for S = sum(2b-1)."""
    b = _as_bits(bits)
    _require(b, 10, "monobit")
    s = 2.0 * int(b.sum()) - b.size
    return [math.erfc(abs(s) / math.sqrt(b.size) / math.sqrt(2.0))]


def block_frequency(bits, block: int = 128) -> list[float]:
    """Per-block bias chi-square over blocks of ``block`` bits."""
    b = _as_bits(bits)
    block = check_scalar("block", block, bounds=(1, None))
    _require(b, max(10, block), "block-frequency")
    n_blocks = b.size // block
    pi = b[:n_blocks * block].reshape(n_blocks, block).mean(axis=1)
    chi_sq = 4.0 * block * float(np.sum((pi - 0.5) ** 2))
    return [_gammaincc(n_blocks / 2.0, chi_sq / 2.0)]


def runs(bits) -> list[float]:
    """Total number of runs vs its expectation under independence.

    Following the published procedure, a sequence whose ones fraction
    deviates from 1/2 by at least 2/sqrt(n) gets p = 0 outright.
    """
    b = _as_bits(bits)
    _require(b, 10, "runs")
    n = b.size
    ones = int(np.count_nonzero(b))
    if abs(2 * ones - n) >= 4.0 * math.sqrt(n):    # |pi - 1/2| >= 2/sqrt(n)
        return [0.0]
    v = 1 + int(np.count_nonzero(b[1:] != b[:-1]))
    spread = ones * (n - ones)     # n^2 * pi * (1 - pi), the complement's too
    num = abs(v - 2 * spread / n)
    den = 2.0 * math.sqrt(2.0 * n) * (spread / (n * n))
    return [math.erfc(num / den)]


def _max_run_per_row(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones in each row of a 0/1 matrix."""
    n_rows, width = blocks.shape
    padded = np.zeros((n_rows, width + 2), dtype=np.uint8)
    padded[:, 1:-1] = blocks
    flat = padded.ravel()
    zero_pos = np.flatnonzero(flat == 0)
    gaps = np.diff(zero_pos) - 1          # ones between consecutive zeros
    # Each row begins with its left pad zero at position row*(width+2).
    row_starts = np.searchsorted(zero_pos[:-1], np.arange(n_rows) * (width + 2))
    return np.maximum.reduceat(gaps, row_starts)


def longest_run(bits) -> list[float]:
    """Distribution of per-block longest runs of ones against reference."""
    b = _as_bits(bits)
    _require(b, 128, "longest-run")
    for min_bits, block, lo, hi, probs in _LONGEST_RUN_TABLE:
        if b.size >= min_bits:
            break
    n_blocks = b.size // block
    blocks = b[:n_blocks * block].reshape(n_blocks, block)
    rows = max(1, _WINDOW // block)
    lengths = np.concatenate([_max_run_per_row(blocks[r:r + rows])
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
    The walk goes window by window, carrying its total, min and max.
    """
    b = _as_bits(bits)
    _require(b, 10, "cumulative-sums")
    low = high = total = 0
    for start in range(0, b.size, _WINDOW):
        walk = np.cumsum(b[start:start + _WINDOW].view(np.int8) * 2 - 1, dtype=np.int32)
        low = min(low, total + int(walk.min()))
        high = max(high, total + int(walk.max()))
        total += int(walk[-1])
    fwd, bwd = max(high, -low), max(total - low, high - total)
    return [_cusum_p(fwd, b.size), _cusum_p(bwd, b.size)]


def _pattern_counts(b: np.ndarray, m: int) -> np.ndarray:
    """Counts of all 2^m overlapping m-bit patterns, circularly extended.

    Codes are built by doubling: the w-bit codes at i and i + s combine
    into the (w + s)-bit codes at i, so m bits take ceil(log2 m) passes.
    Each window of start positions reads its m - 1 following bits, which
    wrap to the head of ``b`` in the last window; a window is at least as
    long as the count table, so the table's zeroing stays a fraction of
    the work.
    """
    n, tail = b.size, m - 1
    window = max(_WINDOW, 1 << m)
    total = np.zeros(1 << m, dtype=np.int64)
    for start in range(0, n, window):
        stop = min(start + window, n) + tail
        if stop <= n:
            codes = b[start:stop].astype(np.uint32)
        else:
            codes = np.concatenate([b[start:], b[:stop - n]]).astype(np.uint32)
        width = 1
        while width < m:
            step = min(width, m - width)
            head = codes[:-step] << step
            head |= codes[step:] if step == width else codes[step:] & ((1 << step) - 1)
            codes = head
            width += step
        total += np.bincount(codes, minlength=1 << m)
    return total


def _leading_counts(b: np.ndarray, m: int, counts: np.ndarray | None) -> np.ndarray:
    """m-bit pattern counts of ``b``, summed from wider ``counts`` if given.

    Summing the counts of a wider circular pattern over its trailing bits
    gives the exact counts of its leading m bits.
    """
    if counts is None:
        return _pattern_counts(b, m)
    size = counts.size
    if size < 1 << m or size & (size - 1) or counts.sum() != b.size:
        raise ParameterError(
            f"counts must be the circular pattern counts of these bits, "
            f"at least {m} bits wide")
    return counts.reshape(1 << m, -1).sum(axis=1)


def _psi_sq(counts: np.ndarray, n: int) -> float:
    c = counts.astype(np.float64)
    return float(c.size / n * np.sum(c * c) - n)


def serial(bits, pattern_bits: int = 16, *,
           counts: np.ndarray | None = None) -> list[float]:
    """Overlapping m-bit pattern uniformity, first and second differences.

    ``counts`` may carry ``_pattern_counts(bits, k)`` for any k >= m, so a
    battery counts patterns once for this test and approximate entropy.
    """
    b = _as_bits(bits)
    m = check_scalar("pattern_bits", pattern_bits, bounds=(2, None))
    _require(b, 1 << (m + 2), "serial")
    n = b.size
    counts_m = _leading_counts(b, m, counts)
    counts_m1 = counts_m.reshape(-1, 2).sum(axis=1)
    counts_m2 = counts_m1.reshape(-1, 2).sum(axis=1)
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
    b = _as_bits(bits)
    m = check_scalar("pattern_bits", pattern_bits, bounds=(0, None))
    _require(b, 1 << (m + 6), "approximate-entropy")
    n = b.size

    def phi(c: np.ndarray) -> float:
        c = c[c > 0].astype(np.float64) / n
        return float(np.sum(c * np.log(c)))

    counts_m1 = _leading_counts(b, m + 1, counts)
    ap_en = phi(counts_m1.reshape(-1, 2).sum(axis=1)) - phi(counts_m1)
    chi_sq = 2.0 * n * (math.log(2.0) - ap_en)
    return [_gammaincc(2.0 ** (m - 1), chi_sq / 2.0)]


def _dft_split(n: int) -> tuple[int, int]:
    """(n1, n2) with n = n1 * n2 and n2 the largest divisor of n up to sqrt(n)."""
    n2 = next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)
    return n // n2, n2


def _dft_work(n: int, work=None) -> tuple[np.ndarray, ...]:
    """The ``(x, grid, twiddles, mask)`` of an n-bit DFT: new, or ``work`` checked.

    For the split n = n1 * n2 of ``_dft_split``, ``x`` is float64 of length
    n and the other three have shape (n1 // 2 + 1, n2): ``grid`` is the
    complex128 spectrum, ``twiddles`` holds w_n^(k1 j2), w_n = e^(-2 pi i / n),
    whose angle is taken from (k1 j2) mod n in integers, and the boolean
    ``mask`` picks each k < n // 2 exactly once.  Cell (k1, k2) of the grid
    holds X[k] for k = k1 + n1 k2.  The mask takes it where k < n // 2, and
    where 0 < 2 k1 < n1 and n - k < n // 2: that cell stands for n - k,
    whose residue mod n1 is above n1 // 2, so it is not on the grid, and
    |X[n - k]| = |X[k]| for real input.  No cell is both.
    """
    n1, n2 = _dft_split(n)
    shape = (n1 // 2 + 1, n2)
    if work is None:
        k1 = np.arange(shape[0], dtype=np.int64)[:, None]
        j2 = np.arange(n2, dtype=np.int64)
        turns = k1 * j2
        turns %= n
        angle = turns * (-2.0 * math.pi / n)
        twiddles = np.empty(shape, dtype=np.complex128)
        np.cos(angle, out=twiddles.real)
        np.sin(angle, out=twiddles.imag)
        k = k1 + n1 * j2
        mask = (k < n // 2) | ((0 < 2 * k1) & (2 * k1 < n1) & (n - k < n // 2))
        return np.empty(n), np.empty(shape, dtype=np.complex128), twiddles, mask
    try:
        x, grid, twiddles, mask = work
    except (TypeError, ValueError):
        raise ParameterError("work must be a tuple (x, grid, twiddles, mask)") from None
    for name, arr, dtype, size in (("x", x, np.float64, (n,)),
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
    return x, grid, twiddles, mask


def _dft_margin(n: int) -> float:
    """How far two float64 transforms of n points of +-1 may disagree on any |X_k|.

    Each is within ``_FFT_ERROR_C`` * u * log2(n) * ||X||_2 of the exact
    spectrum (Higham, Thm 24.2, as in ``extractor``), and ||X||_2 = n for
    +-1 input (Parseval).
    """
    return 2.0 * _FFT_ERROR_C * 2.0 ** -53 * math.log2(n) * n


def _rfft_count(b: np.ndarray, x: np.ndarray, grid: np.ndarray,
                threshold: float) -> int:
    """The count below ``threshold`` from one n-point ``np.fft.rfft`` of ``b``.

    The n // 2 + 1 coefficients fit in the grid's cells.
    """
    n = b.size
    np.multiply(b, 2.0, out=x)
    x -= 1.0
    spectrum = np.fft.rfft(x, out=grid.reshape(-1)[:n // 2 + 1])
    return int(np.count_nonzero(np.abs(spectrum[:n // 2], out=x[:n // 2]) < threshold))


def _dft_count(b: np.ndarray, work: tuple[np.ndarray, ...]) -> int:
    """How many k < n // 2 have |X_k| below the 95% threshold T.

    The spectrum is a six-step transform (Bailey, "FFTs in external or
    hierarchical memory", J. Supercomputing 4, 1990) on the grid of the
    checked ``work``: rffts of length n1 down the columns of x as an
    n1 x n2 matrix, the twiddles, and ffts of length n2 along the rows, in
    place.  A prime n has n2 = 1, a single rfft.  The masked moduli are
    counted below T - d and below T + d, d = ``_dft_margin(n)``.  When the
    two counts differ, some modulus is too close to T to be sure of the
    side one n-point rfft puts it on, and the sequence is counted again
    with that rfft; so the count is always the single transform's.
    """
    n = b.size
    x, grid, twiddles, mask = work
    threshold = math.sqrt(n * math.log(1.0 / 0.05))
    np.multiply(b, 2.0, out=x)
    x -= 1.0
    np.fft.rfft(x.reshape(-1, grid.shape[1]), axis=0, out=grid)
    grid *= twiddles
    np.fft.fft(grid, axis=1, out=grid)
    moduli = np.abs(grid, out=x[:grid.size].reshape(grid.shape))
    margin = _dft_margin(n)
    below = moduli < threshold + margin
    below &= mask
    count = int(np.count_nonzero(below))
    np.less(moduli, threshold - margin, out=below)
    below &= mask
    if int(np.count_nonzero(below)) == count:
        return count
    return _rfft_count(b, x, grid, threshold)


def dft_spectral(bits, *, work=None) -> list[float]:
    """Count of low-magnitude DFT peaks vs the 95% threshold.

    The count is ``_dft_count``'s, equal to one n-point rfft's.  ``work``
    may carry the tuple ``_dft_work(n)`` for the call to overwrite its
    ``x`` and ``grid`` instead of allocating its own and building the
    twiddles and mask; a battery passes one tuple to every sequence.
    """
    b = _as_bits(bits)
    _require(b, 1000, "dft-spectral")
    n = b.size
    count = _dft_count(b, _dft_work(n, work))
    n0 = 0.95 * n / 2.0
    d = (count - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return [math.erfc(abs(d) / math.sqrt(2.0))]


def _all_but_dft(b: np.ndarray, config: TestConfig) -> list[float]:
    """The p-values of every stream but the last, ``dft-spectral``.

    Serial and approximate entropy share one circular pattern count.
    """
    counts = _pattern_counts(
        b, max(config.serial_pattern_bits, config.approx_entropy_pattern_bits + 1))
    return (monobit(b) + block_frequency(b, config.block_frequency_block)
            + runs(b) + longest_run(b) + cumulative_sums(b)
            + serial(b, config.serial_pattern_bits, counts=counts)
            + approximate_entropy(b, config.approx_entropy_pattern_bits, counts=counts))


def run_sequence(bits, config: TestConfig) -> list[float]:
    """One sequence's p-values, one per entry of ``STREAMS``."""
    b = _as_bits(bits)
    return _all_but_dft(b, config) + dft_spectral(b)


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

    All sequences must have exactly ``config.sequence_bits`` bits.  Two
    lanes share the work: one worker thread runs ``dft_spectral`` on each
    sequence in turn, while the calling thread runs the other tests.  The
    FFT and numpy release the GIL, so the lanes overlap.  The worker's
    first task builds the ``_dft_work`` tuple, twiddles and mask included,
    while the calling thread starts on the other tests; every DFT then
    reuses it, which is safe because a single worker runs one DFT at a
    time.  A stream passes
    when its pass proportion exceeds the 3-sigma bound and its p-values
    look uniform at ``UNIFORMITY_THRESHOLD``.
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
    dft_lane = ThreadPoolExecutor(max_workers=1)
    try:
        work = dft_lane.submit(_dft_work, config.sequence_bits)

        def run_dft(arr: np.ndarray) -> list[float]:
            return dft_spectral(arr, work=work.result())

        dfts = [dft_lane.submit(run_dft, arr) for arr in arrays]
        for i, arr in enumerate(arrays):
            table[i, :-1] = _all_but_dft(arr, config)
        for i, dft in enumerate(dfts):
            table[i, -1] = dft.result()[0]
    finally:
        dft_lane.shutdown(cancel_futures=True)

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
