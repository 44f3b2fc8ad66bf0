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
from scipy.special import erfc, gammaincc, ndtr

from .config import TestConfig
from .errors import ParameterError, SequenceLengthError, check_scalar
from .extractor import BitStream, bit_array

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
    return [float(erfc(abs(s) / math.sqrt(b.size) / math.sqrt(2.0)))]


def block_frequency(bits, block: int = 128) -> list[float]:
    """Per-block bias chi-square over blocks of ``block`` bits."""
    b = _as_bits(bits)
    block = check_scalar("block", block, bounds=(1, None))
    _require(b, max(10, block), "block-frequency")
    n_blocks = b.size // block
    pi = b[:n_blocks * block].reshape(n_blocks, block).mean(axis=1)
    chi_sq = 4.0 * block * float(np.sum((pi - 0.5) ** 2))
    return [float(gammaincc(n_blocks / 2.0, chi_sq / 2.0))]


def runs(bits) -> list[float]:
    """Total number of runs vs its expectation under independence.

    Following the published procedure, a sequence whose ones fraction
    deviates from 1/2 by at least 2/sqrt(n) gets p = 0 outright.
    """
    b = _as_bits(bits)
    _require(b, 10, "runs")
    n = b.size
    pi = float(b.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return [0.0]
    v = 1 + int(np.count_nonzero(b[1:] != b[:-1]))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return [float(erfc(num / den))]


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
    return [float(gammaincc(len(probs) / 2.0 - 0.5, chi_sq / 2.0))]


def _cusum_p(z: int, n: int) -> float:
    if z == 0:
        return 1.0
    root = math.sqrt(n)
    k_max = int(10.0 * root / (4.0 * z)) + 2   # terms beyond are < 1e-20
    k = np.arange(-k_max, k_max + 1, dtype=np.float64)
    sum1 = np.sum(ndtr((4.0 * k + 1.0) * z / root) - ndtr((4.0 * k - 1.0) * z / root))
    sum2 = np.sum(ndtr((4.0 * k + 3.0) * z / root) - ndtr((4.0 * k + 1.0) * z / root))
    return float(1.0 - sum1 + sum2)


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
    return [float(gammaincc(2.0 ** (m - 2), d1 / 2.0)),
            float(gammaincc(2.0 ** (m - 3), d2 / 2.0))]


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
    return [float(gammaincc(2.0 ** (m - 1), chi_sq / 2.0))]


def _dft_work(n: int, work=None) -> tuple[np.ndarray, np.ndarray]:
    """The ``(x, spectrum)`` buffers of an n-bit DFT: new, or ``work`` checked."""
    if work is None:
        return np.empty(n), np.empty(n // 2 + 1, dtype=np.complex128)
    try:
        x, spectrum = work
    except (TypeError, ValueError):
        raise ParameterError("work must be a pair (x, spectrum)") from None
    for name, arr, dtype, size in (("x", x, np.float64, n),
                                   ("spectrum", spectrum, np.complex128, n // 2 + 1)):
        if (not isinstance(arr, np.ndarray) or arr.dtype != dtype
                or arr.shape != (size,)):
            got = (f"{arr.dtype} {arr.shape}" if isinstance(arr, np.ndarray)
                   else type(arr).__name__)
            raise ParameterError(
                f"work {name} must be a {np.dtype(dtype).name} array of shape "
                f"({size},) for {n} bits, got {got}")
    return x, spectrum


def dft_spectral(bits, *, work=None) -> list[float]:
    """Count of low-magnitude DFT peaks vs the 95% threshold.

    ``work`` may carry the pair ``(x, spectrum)``, float64 of length n and
    complex128 of length n // 2 + 1, for the call to overwrite instead of
    allocating its own; a battery passes one pair to every sequence.
    """
    b = _as_bits(bits)
    _require(b, 1000, "dft-spectral")
    n = b.size
    x, spectrum = _dft_work(n, work)
    np.multiply(b, 2.0, out=x)
    x -= 1.0
    np.fft.rfft(x, out=spectrum)
    moduli = np.abs(spectrum[:n // 2], out=x[:n // 2])
    threshold = math.sqrt(n * math.log(1.0 / 0.05))
    n0 = 0.95 * n / 2.0
    n1 = int(np.count_nonzero(moduli < threshold))
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return [float(erfc(abs(d) / math.sqrt(2.0)))]


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
    return float(gammaincc(4.5, chi_sq / 2.0))


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
    FFT and numpy release the GIL, so the lanes overlap.  The worker
    reuses one pair of DFT buffers for every sequence, which is safe
    because a single worker runs one DFT at a time.  A stream passes
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
    work = _dft_work(config.sequence_bits)
    dft_lane = ThreadPoolExecutor(max_workers=1)
    try:
        dfts = [dft_lane.submit(dft_spectral, arr, work=work) for arr in arrays]
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
