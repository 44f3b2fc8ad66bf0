import hashlib
import json
import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import gammaincc

from phaserng import rng
from phaserng import stattests as st
from phaserng.errors import ParameterError, SequenceLengthError
from phaserng.extractor import BitStream

# Reference p-values computed independently with 40-digit arbitrary-precision
# special functions (erfc, regularized incomplete gamma, normal CDF) on the
# exact inputs reconstructed below.  The implementation must agree to 1e-10.
P_VALUE_TABLE = {
    "monobit:1011010101": 0.5270892568655381,
    "block_frequency:0110011010:M3": 0.8012519569012008,
    "runs:1001101011": 0.14723225536366558,
    "cusum_fwd:1011010111": 0.41151081735139344,
    "cusum_bwd:1011010111": 0.41151081735139344,
    "longest_run:n128:seed42": 0.7843046841167868,
    "longest_run:n6272:seed43": 0.17336462526875407,
    "longest_run:n750000:seed44": 0.5136622189101199,
    "monobit:n1000:seed45": 0.4866160457640505,
    "block_frequency:n1000:seed45:M128": 0.47925815352914786,
    "runs:n1000:seed45": 0.5794606088023687,
    "cusum_fwd:n1000:seed45": 0.8504727711059678,
    "cusum_bwd:n1000:seed45": 0.291508075872141,
    "serial_p1:n1000:seed45:m5": 0.7034694124078507,
    "serial_p2:n1000:seed45:m5": 0.5033746028846597,
    "approximate_entropy:n1000:seed45:m3": 0.7398279566395437,
    "dft:n1000:seed45": 1.0,
    "dft:n1024:seed46": 0.0010786187068240573,
}

MONOBIT_ALL_ONES_100 = 1.523970604832105e-23

# sha256 of each stream's p-values (float64 bytes, report order) for
# run_battery on 12 x 300,000 bits (random_bits seed 2024, streams 0-11)
# with the default pattern bits.  The kernels' arithmetic is exact, so
# any reordering of the battery must reproduce these bit for bit.  Schema
# 13 moved every stream in its last digits: the tails are ``math.erfc`` and
# ``_gammaincc``, no longer scipy's.  Schema 15 moved runs in its last
# digits: pi*(1 - pi) comes from the integer count of ones.
BATTERY_KNOWN_ANSWERS = {
    "monobit": "c55778208a67f9195654acff47b7b4ae29b97cae24ac0ee3741d0ed5f9cad12c",
    "block-frequency": "3f4850d437ebb16c1ac5eccaa90815fc11c936e41e6d40c59cdfd83947a75930",
    "runs": "1e71328de1a7cc7eb90497e8a434efe6772459fa7c3a78d510d5bcaab8bcbb3a",
    "longest-run": "bacf1ffd6f97a09320eb6e62ec0f7d27e7965384175fa681c3eecc9eeffda860",
    "cumulative-sums-forward":
        "030b2e31343bf6a703d48dc5199d4f51234228c2f55b0be0c65a57f9f8d5d5aa",
    "cumulative-sums-backward":
        "ed5cc016575db2c581dd388ac12b13f468a0506c209f737a717d5da0d36162c7",
    "serial-first": "644408185e4dfae872aa63cb78ae0c98071ac50d1fba1d798eae509a5517af3c",
    "serial-second": "58765dfa5fb5fc1d944c80c9b106cb8047705ca3e98c1160d4bc845482c79505",
    "approximate-entropy":
        "ffa87feed6eb4babd84417402e5fb3fc043f9260f6b8e2dd15961c5972461c93",
    "dft-spectral": "151427f286243c30adddf76a3005a53dde4537e541d34ae39c4889da9b57663a",
}


def pattern_counts_oracle(b, m):
    """One shift-and-or pass per pattern bit over int64 codes."""
    n = b.size
    ext = np.concatenate([b, b[:m - 1]]) if m > 1 else b
    codes = np.zeros(n, dtype=np.int64)
    for j in range(m):
        codes <<= 1
        codes |= ext[j:j + n]
    return np.bincount(codes, minlength=1 << m)


def cumulative_sums_oracle(b):
    """Forward and backward float64 walks, each scanned for its extreme."""
    steps = 2.0 * np.asarray(b).astype(np.float64) - 1.0
    fwd = int(np.abs(np.cumsum(steps)).max())
    bwd = int(np.abs(np.cumsum(steps[::-1])).max())
    return [st._cusum_p(fwd, b.size), st._cusum_p(bwd, b.size)]


def pattern_counts_unwindowed(b, m):
    """Pattern counts by doubling, over the whole unpacked sequence.

    The w-bit codes at i and i + s combine into the (w + s)-bit codes at i,
    so m bits take ceil(log2 m) passes over uint32 codes.
    """
    codes = np.concatenate([b, b[:m - 1]]).astype(np.uint32)
    width = 1
    while width < m:
        step = min(width, m - width)
        head = codes[:-step] << step
        head |= codes[step:] if step == width else codes[step:] & ((1 << step) - 1)
        codes = head
        width += step
    return np.bincount(codes, minlength=1 << m)


def cumulative_sums_unwindowed(b):
    """``cumulative_sums`` as one int32 walk over the whole unpacked sequence."""
    walk = np.cumsum(b.view(np.int8) * 2 - 1, dtype=np.int32)
    low, high, total = min(0, int(walk.min())), max(0, int(walk.max())), int(walk[-1])
    fwd, bwd = max(high, -low), max(total - low, high - total)
    return [st._cusum_p(fwd, b.size), st._cusum_p(bwd, b.size)]


def max_run_per_row(blocks):
    """Longest run of ones in each row of a 0/1 matrix, from the gaps between zeros."""
    n_rows, width = blocks.shape
    padded = np.zeros((n_rows, width + 2), dtype=np.uint8)
    padded[:, 1:-1] = blocks
    flat = padded.ravel()
    zero_pos = np.flatnonzero(flat == 0)
    gaps = np.diff(zero_pos) - 1          # ones between consecutive zeros
    # Each row begins with its left pad zero at position row*(width+2).
    row_starts = np.searchsorted(zero_pos[:-1], np.arange(n_rows) * (width + 2))
    return np.maximum.reduceat(gaps, row_starts)


def longest_run_unwindowed(b):
    """``longest_run`` on unpacked bits, every block's longest run found in one call."""
    for min_bits, block, lo, hi, probs in st._LONGEST_RUN_TABLE:
        if b.size >= min_bits:
            break
    n_blocks = b.size // block
    lengths = max_run_per_row(b[:n_blocks * block].reshape(n_blocks, block))
    classes = np.clip(lengths, lo, hi) - lo
    counts = np.bincount(classes, minlength=hi - lo + 1)
    expected = n_blocks * np.asarray(probs)
    chi_sq = float(np.sum((counts - expected) ** 2 / expected))
    return [st._gammaincc(len(probs) / 2.0 - 0.5, chi_sq / 2.0)]


def monobit_oracle(b):
    """``monobit`` on unpacked bits."""
    s = 2.0 * int(b.sum()) - b.size
    return [math.erfc(abs(s) / math.sqrt(b.size) / math.sqrt(2.0))]


def runs_oracle(b):
    """``runs`` on unpacked bits, the changes counted between neighbours."""
    n, ones = b.size, int(np.count_nonzero(b))
    if abs(2 * ones - n) >= 4.0 * math.sqrt(n):
        return [0.0]
    v = 1 + int(np.count_nonzero(b[1:] != b[:-1]))
    spread = ones * (n - ones)
    num = abs(v - 2 * spread / n)
    den = 2.0 * math.sqrt(2.0 * n) * (spread / (n * n))
    return [math.erfc(num / den)]


def block_frequency_oracle(b, block):
    """``block_frequency`` on unpacked bits, each block's mean taken in float64."""
    n_blocks = b.size // block
    pi = b[:n_blocks * block].reshape(n_blocks, block).mean(axis=1)
    chi_sq = 4.0 * block * float(np.sum((pi - 0.5) ** 2))
    return [st._gammaincc(n_blocks / 2.0, chi_sq / 2.0)]


def longest_run_class_probabilities(block, lo, hi):
    """Exact class probabilities of the longest run of ones in ``block`` fair bits.

    P(no run of k ones) comes from a k-state chain over the current run
    length: a zero resets it, a one extends it, and reaching k leaves the
    chain.
    """
    def no_run_of(k):
        chain = np.zeros((k, k))
        chain[:, 0] = 0.5
        chain[np.arange(k - 1), np.arange(1, k)] = 0.5
        return np.linalg.matrix_power(chain, block)[0].sum()

    at_most = [no_run_of(k + 1) for k in range(lo, hi)]   # P(longest <= k)
    return np.diff([0.0, *at_most, 1.0])


WINDOW = st._WINDOW


def windowed_cases():
    """Sequences that probe the window edges of the windowed kernels."""
    cases = {f"random-n{n}": rng.random_bits(n, seed=79, stream=k)
             for k, n in enumerate((WINDOW - 1, WINDOW, WINDOW + 1,
                                    3 * WINDOW + 7, 1_000_000))}
    for n in (3 * WINDOW + 7, 1_000_000):
        cases[f"zeros-n{n}"] = np.zeros(n, dtype=np.uint8)
        cases[f"ones-n{n}"] = np.ones(n, dtype=np.uint8)
        cases[f"alternating-n{n}"] = np.resize(np.array([1, 0], dtype=np.uint8), n)
    # Runs of ones across a window edge, which is also a block edge: 128-bit
    # blocks below 750,000 bits, 10^4-bit blocks from there.
    edge = rng.random_bits(3 * WINDOW + 7, seed=80)
    edge[WINDOW - 200:WINDOW + 200] = 1
    cases["run-across-window-M128"] = edge
    edge = rng.random_bits(1_000_000, seed=81)
    row_edge = WINDOW // 10_000 * 10_000
    edge[row_edge - 5000:row_edge + 5000] = 1
    cases["run-across-window-M10000"] = edge
    # The walk's maximum, or its minimum, falls in the last window.
    last = rng.random_bits(3 * WINDOW + 7, seed=82)
    last[-3000:] = 1
    cases["cusum-max-in-last-window"] = last
    last = rng.random_bits(1_000_000, seed=83)
    last[-3000:] = 0
    cases["cusum-min-in-last-window"] = last
    return cases


WINDOWED_CASES = windowed_cases()


def bits(pattern: str) -> np.ndarray:
    return np.array([int(c) for c in pattern], dtype=np.uint8)


def table_results():
    b10 = bits("1011010101")
    b_bf = bits("0110011010")
    b_runs = bits("1001101011")
    b_cs = bits("1011010111")
    n128 = rng.random_bits(128, seed=42)
    n6272 = rng.random_bits(6272, seed=43)
    n750k = rng.random_bits(750_000, seed=44)
    r1000 = rng.random_bits(1000, seed=45)
    r1024 = rng.random_bits(1024, seed=46)
    cs_f, cs_b = st.cumulative_sums(b_cs)
    cs_f2, cs_b2 = st.cumulative_sums(r1000)
    ser1, ser2 = st.serial(r1000, 5)
    return {
        "monobit:1011010101": st.monobit(b10)[0],
        "block_frequency:0110011010:M3": st.block_frequency(b_bf, 3)[0],
        "runs:1001101011": st.runs(b_runs)[0],
        "cusum_fwd:1011010111": cs_f,
        "cusum_bwd:1011010111": cs_b,
        "longest_run:n128:seed42": st.longest_run(n128)[0],
        "longest_run:n6272:seed43": st.longest_run(n6272)[0],
        "longest_run:n750000:seed44": st.longest_run(n750k)[0],
        "monobit:n1000:seed45": st.monobit(r1000)[0],
        "block_frequency:n1000:seed45:M128": st.block_frequency(r1000, 128)[0],
        "runs:n1000:seed45": st.runs(r1000)[0],
        "cusum_fwd:n1000:seed45": cs_f2,
        "cusum_bwd:n1000:seed45": cs_b2,
        "serial_p1:n1000:seed45:m5": ser1,
        "serial_p2:n1000:seed45:m5": ser2,
        "approximate_entropy:n1000:seed45:m3":
            st.approximate_entropy(r1000, 3)[0],
        "dft:n1000:seed45": st.dft_spectral(r1000)[0],
        "dft:n1024:seed46": st.dft_spectral(r1024)[0],
    }


class TestReferenceValues:
    def test_agreement_to_1e_minus_10(self):
        got = table_results()
        assert got.keys() == P_VALUE_TABLE.keys()
        for key, want in P_VALUE_TABLE.items():
            assert abs(got[key] - want) < 1e-10, key

    def test_monobit_extreme_deviation(self):
        p = st.monobit(np.ones(100, dtype=np.uint8))[0]
        assert p == pytest.approx(MONOBIT_ALL_ONES_100, rel=1e-10)

    def test_monobit_perfect_balance(self):
        p = st.monobit(np.tile([1, 0], 50))[0]
        assert p == 1.0


class TestIndividualBehaviors:
    def test_runs_precondition_forces_zero(self):
        # ones fraction 0.8 deviates from 1/2 by 0.3 >= 2/sqrt(100)
        seq = np.concatenate([np.ones(80, dtype=np.uint8),
                              np.zeros(20, dtype=np.uint8)])
        assert st.runs(seq)[0] == 0.0

    def test_runs_accepts_bitstream_input(self):
        stream = BitStream.from_bits(bits("1001101011"))
        assert st.runs(stream)[0] == pytest.approx(
            P_VALUE_TABLE["runs:1001101011"], abs=1e-12)

    def test_longest_run_block_size_selection(self):
        # block size is 8 up to 6271 bits, 128 up to 749999, then 10000;
        # the branch shows up as a different p-value for a shared prefix
        seq = rng.random_bits(6272, seed=47)
        small = st.longest_run(seq[:6271])[0]
        large = st.longest_run(seq)[0]
        assert small != large

    def test_longest_run_reference_table_frozen(self):
        assert st._LONGEST_RUN_TABLE[0][:4] == (750_000, 10_000, 10, 16)
        assert st._LONGEST_RUN_TABLE[1][:4] == (6_272, 128, 4, 9)
        assert st._LONGEST_RUN_TABLE[2][:4] == (128, 8, 1, 4)
        for _, _, lo, hi, probs in st._LONGEST_RUN_TABLE:
            assert len(probs) == hi - lo + 1
            # 4-digit rounding of at most 7 values: |error| <= 3.5e-4
            assert abs(sum(probs) - 1.0) < 5e-4

    def test_longest_run_table_matches_exact_probabilities(self):
        # M = 8 and M = 128 are exact values to four digits, within one unit
        # of the last digit (SP 800-22 prints 0.2493 where the exact value is
        # 0.24936); M = 10^4 is the published approximation.
        tolerance = {8: 1e-4, 128: 1e-4, 10_000: 2e-3}
        for _, block, lo, hi, probs in st._LONGEST_RUN_TABLE:
            exact = longest_run_class_probabilities(block, lo, hi)
            np.testing.assert_allclose(probs, exact, rtol=0, atol=tolerance[block],
                                       err_msg=f"M={block}")

    def test_max_run_per_row(self):
        blocks = np.array([[1, 1, 0, 1], [0, 0, 0, 0], [1, 1, 1, 1]],
                          dtype=np.uint8)
        np.testing.assert_array_equal(max_run_per_row(blocks), [2, 0, 4])
        # The packed kernel on the same rows, each padded with zeros to a byte.
        packed = np.packbits(blocks, axis=1)
        np.testing.assert_array_equal(st._longest_runs(packed), [2, 0, 4])

    def test_cusum_symmetric_sequence(self):
        # palindromic sequence: forward and backward excursions agree
        seq = bits("1011010111")
        f, b = st.cumulative_sums(seq)
        rf, rb = st.cumulative_sums(seq[::-1])
        assert f == rb and b == rf

    def test_serial_pattern_fold_consistency(self):
        # counts of (m-1)-patterns are pairwise sums of m-pattern counts
        b = rng.random_bits(4096, seed=48)
        c4 = st._pattern_counts(b, 4)
        c3 = st._pattern_counts(b, 3)
        np.testing.assert_array_equal(c4.reshape(-1, 2).sum(axis=1), c3)
        assert int(c4.sum()) == b.size

    def test_dft_rejects_periodic_sequence(self):
        assert st.dft_spectral(np.tile([1, 0], 600))[0] < 1e-10

    def test_alternating_passes_monobit_fails_runs(self):
        seq = np.tile([1, 0], 600)
        assert st.monobit(seq)[0] == 1.0
        assert st.runs(seq)[0] < 1e-10  # far too many runs

    def test_complement_invariance(self):
        # flipping every bit negates S (|S| unchanged) and keeps both the
        # run count and pi*(1-pi) fixed, so both p-values are bit-exact
        n_runs = lambda b: int(np.count_nonzero(np.diff(b.astype(np.int8)))) + 1
        for s in range(200):
            seq = rng.random_bits(2000, seed=s)
            comp = (1 - seq).astype(np.uint8)
            assert st.monobit(seq) == st.monobit(comp), s
            assert st.runs(seq) == st.runs(comp), s
            assert n_runs(seq) == n_runs(comp), s


class TestKernelOracles:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 11, 16, 17, 24])
    def test_pattern_counts_match_oracle(self, m):
        for n in (m, m + 1, 1000):
            b = rng.random_bits(n, seed=70 + m, stream=n)
            np.testing.assert_array_equal(st._pattern_counts(b, m),
                                          pattern_counts_oracle(b, m),
                                          err_msg=f"m={m} n={n}")

    @pytest.mark.parametrize("seq", [
        rng.random_bits(10, seed=71),
        np.ones(1000, dtype=np.uint8),
        np.zeros(1000, dtype=np.uint8),
        np.tile(np.array([1, 0], dtype=np.uint8), 500),
        rng.random_bits(100_000, seed=72),
    ], ids=["n10", "ones", "zeros", "alternating", "random1e5"])
    def test_cumulative_sums_match_oracle(self, seq):
        assert st.cumulative_sums(seq) == cumulative_sums_oracle(seq)

    @pytest.mark.parametrize("name", WINDOWED_CASES)
    def test_windowed_pattern_counts_match_unwindowed(self, name):
        b = WINDOWED_CASES[name]
        for m in range(2, 17):
            np.testing.assert_array_equal(st._pattern_counts(b, m),
                                          pattern_counts_unwindowed(b, m),
                                          err_msg=f"m={m}")

    @pytest.mark.parametrize("name", WINDOWED_CASES)
    def test_windowed_cumulative_sums_match_unwindowed(self, name):
        b = WINDOWED_CASES[name]
        assert st.cumulative_sums(b) == cumulative_sums_unwindowed(b)

    @pytest.mark.parametrize("name", WINDOWED_CASES)
    def test_windowed_longest_run_matches_unwindowed(self, name):
        b = WINDOWED_CASES[name]
        assert st.longest_run(b) == longest_run_unwindowed(b)

    @pytest.mark.parametrize("serial_m,apen_m", [(16, 10), (5, 11)])
    def test_shared_count_gives_identical_p_values(self, serial_m, apen_m):
        b = rng.random_bits(1 << 18, seed=73)
        counts = st._pattern_counts(b, max(serial_m, apen_m + 1))
        assert st.serial(b, serial_m, counts=counts) == st.serial(b, serial_m)
        assert (st.approximate_entropy(b, apen_m, counts=counts)
                == st.approximate_entropy(b, apen_m))

    def test_shared_count_must_fit(self):
        b = rng.random_bits(4096, seed=74)
        with pytest.raises(ParameterError):
            st.serial(b, 8, counts=st._pattern_counts(b, 7))   # too narrow
        with pytest.raises(ParameterError):
            st.approximate_entropy(b, 3, counts=st._pattern_counts(b[:-1], 8))


def with_runs(b, starts, lengths):
    """A copy of ``b`` with a run of ones of each length set at each start."""
    b = b.copy()
    for start, length in zip(starts, lengths):
        b[start:start + length] = 1
    return b


class TestPackedKernels:
    """The packed kernels against the unpacked oracles, at every n mod 8."""

    @pytest.mark.parametrize("r", range(8))
    def test_counts_and_walk_match_at_each_n_mod_8(self, r):
        for seed in range(5):
            b = rng.random_bits(1000 + r, seed=100 + seed, stream=r)
            assert st.monobit(b) == monobit_oracle(b)
            assert st.runs(b) == runs_oracle(b)
            assert st.cumulative_sums(b) == cumulative_sums_unwindowed(b)
            assert st.cumulative_sums(b) == cumulative_sums_oracle(b)
        # The walk's maximum, then its minimum, at the last bit of a partial
        # byte: the alternating head keeps the walk within [0, 1].
        head = np.resize(np.array([1, 0], dtype=np.uint8), 1000)
        for tail in (np.ones(r, dtype=np.uint8), np.zeros(r, dtype=np.uint8)):
            b = np.concatenate([head, tail])
            assert st.cumulative_sums(b) == cumulative_sums_unwindowed(b)
            assert st.runs(b) == runs_oracle(b)

    @pytest.mark.parametrize("m", range(1, 25))
    def test_pattern_counts_wrap_at_each_n_mod_8(self, m):
        for r in range(8):
            b = rng.random_bits(1000 + r, seed=101, stream=8 * m + r)
            np.testing.assert_array_equal(st._pattern_counts(b, m),
                                          pattern_counts_oracle(b, m),
                                          err_msg=f"m={m} n={b.size}")

    def test_packed_input_reads_its_bytes(self):
        b = rng.random_bits(4099, seed=102)
        stream = BitStream.from_bits(b)
        config = st.TestConfig(sequence_bits=4099, sequence_count=1,
                               serial_pattern_bits=5, approx_entropy_pattern_bits=3)
        np.testing.assert_array_equal(st._pattern_counts(stream, 11),
                                      st._pattern_counts(b, 11))
        assert st._all_but_dft(stream, config) == st._all_but_dft(b, config)

    @pytest.mark.parametrize("block", [2, 3, 63, 64, 127, 128, 129, 1000])
    def test_block_frequency_matches_at_any_block(self, block):
        for r in range(8):
            b = rng.random_bits(3000 + r, seed=103, stream=r)
            assert st.block_frequency(b, block) == block_frequency_oracle(b, block), r

    # Rows of M = 8, 128 and 10^4 bits: random, with runs of ones of 1 to
    # 40 bits set across byte edges (chains of 0xFF bytes from 9 bits on),
    # runs on both sides of each row edge, and whole rows of ones.
    @pytest.mark.parametrize("block", [8, 128, 10_000])
    def test_longest_runs_match_per_row(self, block):
        gen = np.random.default_rng(block)
        n_rows = max(64, 200_000 // block)
        n = n_rows * block
        b = rng.random_bits(n, seed=104)
        b = with_runs(b, gen.integers(0, n, n // 50), gen.integers(1, 41, n // 50))
        edges = np.arange(block, n, block)
        b = with_runs(b, edges - gen.integers(1, 20, edges.size), gen.integers(1, 40, edges.size))
        b[:block] = 1
        b[-2 * block:-block] = 1
        rows = b.reshape(n_rows, block)
        np.testing.assert_array_equal(st._longest_runs(np.packbits(rows, axis=1)),
                                      max_run_per_row(rows))

    # Sequences that pick each block size, with runs of ones across byte and
    # block edges, and across the edge of the scan's windows at 10^4.
    @pytest.mark.parametrize("n", [6271, 6272, 749_999, 1_000_003])
    def test_longest_run_matches_unwindowed(self, n):
        gen = np.random.default_rng(n)
        b = rng.random_bits(n, seed=105)
        b = with_runs(b, gen.integers(0, n, n // 100), gen.integers(1, 41, n // 100))
        window_edge = 8 * WINDOW // 10_000 * 10_000
        b[window_edge - 40:window_edge + 40] = 1
        assert st.longest_run(b) == longest_run_unwindowed(b)

    def test_walk_extremes_at_the_window_edge(self):
        n = 8 * WINDOW + 4001
        for fill in (0, 1):
            b = rng.random_bits(n, seed=106)
            b[8 * WINDOW - 3000:8 * WINDOW + 3000] = fill
            assert st.cumulative_sums(b) == cumulative_sums_unwindowed(b)

    @pytest.mark.parametrize("counts", [
        [2**26 + 1, 2**26 + 1, 1],            # int64 dot: n^2 < 2^63
        [2**31 + 5, 2**31 + 7, 3],            # Python ints: n^2 >= 2^63
    ])
    def test_serial_sum_of_squares_is_exact(self, counts):
        counts = np.array(counts, dtype=np.int64)
        n = int(counts.sum())
        squares = sum(Fraction(int(c)) ** 2 for c in counts)
        assert Fraction(float(np.sum(counts.astype(np.float64) ** 2))) != squares
        assert st._psi_sq(counts, n) == counts.size / n * float(squares) - n


class TestSequenceLengthFloors:
    @pytest.mark.parametrize("fn,args,floor", [
        (st.monobit, (), 10),
        (st.runs, (), 10),
        (st.cumulative_sums, (), 10),
        (st.longest_run, (), 128),
        (st.dft_spectral, (), 1000),
    ])
    def test_simple_floors(self, fn, args, floor):
        ok = rng.random_bits(floor, seed=49)
        fn(ok, *args)
        with pytest.raises(SequenceLengthError):
            fn(ok[:floor - 1], *args)

    def test_block_frequency_floor_tracks_block(self):
        seq = rng.random_bits(127, seed=50)
        with pytest.raises(SequenceLengthError):
            st.block_frequency(seq, 128)
        st.block_frequency(seq, 64)

    def test_serial_floor(self):
        seq = rng.random_bits(127, seed=51)
        with pytest.raises(SequenceLengthError):
            st.serial(seq, 5)  # needs 2^7
        st.serial(rng.random_bits(128, seed=51), 5)

    def test_approximate_entropy_floor(self):
        with pytest.raises(SequenceLengthError):
            st.approximate_entropy(rng.random_bits(511, seed=52), 3)
        st.approximate_entropy(rng.random_bits(512, seed=52), 3)

    def test_serial_pattern_bits_minimum(self):
        with pytest.raises(ParameterError):
            st.serial(rng.random_bits(1000, seed=53), 1)


class TestPValueRangeFuzzing:
    @given(hst.integers(min_value=0, max_value=2**32),
           hst.sampled_from([0.2, 0.4, 0.5, 0.6, 0.8]),
           hst.sampled_from([1024, 1500, 2048, 4096]))
    @settings(max_examples=60, deadline=None)
    def test_all_tests_return_probabilities(self, seed, bias, n):
        gen = np.random.default_rng(seed)
        b = (gen.random(n) < bias).astype(np.uint8)
        config = st.TestConfig(sequence_bits=n, sequence_count=1,
                               serial_pattern_bits=5,
                               approx_entropy_pattern_bits=3)
        p_values = st.run_sequence(b, config)
        assert len(p_values) == len(st.STREAMS)
        for p in p_values:
            assert 0.0 <= p <= 1.0
            assert math.isfinite(p)


class TestRunTest:
    def test_not_implemented_list_frozen(self):
        assert st.NOT_IMPLEMENTED == (
            "universal", "linear-complexity", "non-overlapping-template",
            "overlapping-template", "random-excursions",
            "random-excursions-variant", "binary-matrix-rank")
        assert len(st.STREAMS) == 10


class TestConfigAndBounds:
    def test_statistical_bound_formula(self):
        config = st.TestConfig(sequence_bits=1 << 18, sequence_count=100)
        expected = 0.99 - 3.0 * math.sqrt(0.99 * 0.01 / 100)
        assert config.proportion_bound() == pytest.approx(expected, abs=1e-15)
        assert config.proportion_bound() == pytest.approx(0.96015, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ParameterError):
            st.TestConfig(sequence_bits=99, sequence_count=1)
        with pytest.raises(ParameterError):
            st.TestConfig(sequence_bits=1 << 18, sequence_count=0)
        with pytest.raises(ParameterError):
            st.TestConfig(sequence_bits=1 << 18, sequence_count=1, alpha=0.0)
        with pytest.raises(ParameterError):
            st.TestConfig(sequence_bits=1 << 18, sequence_count=1,
                          serial_pattern_bits=25)

    # Each geometry's minimum is bound by a different test: dft-spectral's
    # 1000 bits, one block-frequency block, serial's 2^(m+2), approximate
    # entropy's 2^(m+6).
    @pytest.mark.parametrize("knobs,minimum", [
        ({}, 1000),
        ({"block_frequency_block": 3000}, 3000),
        ({"serial_pattern_bits": 10}, 4096),
        ({"approx_entropy_pattern_bits": 7}, 8192),
    ], ids=["dft", "block-frequency", "serial", "approximate-entropy"])
    def test_minimum_sequence_bits_matches_the_tests(self, knobs, minimum):
        knobs = {"serial_pattern_bits": 5, "approx_entropy_pattern_bits": 3,
                 **knobs}
        config = st.TestConfig(sequence_bits=minimum, sequence_count=1, **knobs)
        seq = rng.random_bits(minimum, seed=54)
        report = st.run_battery([seq], config)
        assert len(report.results) == len(st.STREAMS)
        with pytest.raises(SequenceLengthError):
            st.run_sequence(seq[:-1], config)
        with pytest.raises(ParameterError):
            st.TestConfig(sequence_bits=minimum - 1, sequence_count=1, **knobs)


class TestUniformityP:
    def test_perfectly_uniform_deciles(self):
        p_values = np.repeat((np.arange(10) + 0.5) / 10.0, 5)
        assert st.uniformity_p(p_values) == 1.0

    def test_concentrated_values_rejected(self):
        assert st.uniformity_p(np.full(100, 0.55)) < 1e-50

    def test_top_edge_goes_to_last_bin(self):
        # p = 1.0 must not index an 11th bin
        p_values = np.concatenate([np.full(50, 1.0),
                                   np.repeat((np.arange(10) + 0.5) / 10, 5)])
        assert 0.0 <= st.uniformity_p(p_values) <= 1.0


# Every shape a the battery passes to the chi-square tail Q(a, x): longest
# run (3, 2.5, 1.5), uniformity (4.5), block frequency at the default
# geometry (3906) and on 1000, 2048 and 4096 bits (3.5, 8, 16), and serial
# and approximate entropy (2^(m-1), 2^(m-2), 2^(m-3)) at the default and
# the small tests' pattern bits.
TAIL_SHAPES = sorted({0.5, 1.0, 1.5, 2.5, 3.0, 3.5, 4.5, 3906.0}
                     | {2.0 ** (m - k) for m in (16, 10, 8, 5, 3) for k in (1, 2, 3)})


class TestUpperGammaTail:
    """``_gammaincc`` against two oracles: scipy's and, at whole a, the
    Poisson sum Q(a, x) = exp(-x) sum_{k<a} x^k / k!."""

    @staticmethod
    def grid(a):
        return np.linspace(0.0, a + 40.0 * math.sqrt(a), 401).tolist()

    @pytest.mark.parametrize("a", TAIL_SHAPES)
    def test_matches_scipy(self, a):
        for x in self.grid(a):
            want = float(gammaincc(a, x))
            if want >= 1e-300:
                assert st._gammaincc(a, x) == pytest.approx(want, rel=1e-10, abs=0.0), x

    @pytest.mark.parametrize("a", range(1, 21))
    def test_matches_poisson_sum(self, a):
        for x in self.grid(a):
            want = math.exp(-x) * math.fsum(x ** k / math.factorial(k) for k in range(a))
            if want >= 1e-300:
                assert st._gammaincc(a, x) == pytest.approx(want, rel=1e-10, abs=0.0), x

    @pytest.mark.parametrize("a", [0.5, 4.5, 16384.0])
    def test_edge_values_are_scipys(self, a):
        assert st._gammaincc(a, 0.0) == 1.0 == gammaincc(a, 0.0)
        assert st._gammaincc(a, math.inf) == 0.0 == gammaincc(a, math.inf)
        assert math.isnan(st._gammaincc(a, -1e-300)) and math.isnan(gammaincc(a, -1e-300))


def small_battery_config(n=2048, count=10):
    return st.TestConfig(sequence_bits=n, sequence_count=count,
                         serial_pattern_bits=5, approx_entropy_pattern_bits=3)


class TestBattery:
    def test_stream_structure(self):
        config = small_battery_config()
        seqs = [rng.random_bits(2048, seed=57, stream=i) for i in range(10)]
        report = st.run_battery(seqs, config)
        assert [r.name for r in report.results] == [
            "monobit", "block-frequency", "runs", "longest-run",
            "cumulative-sums-forward", "cumulative-sums-backward",
            "serial-first", "serial-second", "approximate-entropy",
            "dft-spectral"]
        for r in report.results:
            assert r.p_values.size == 10
            # SP 800-22's fixed uniformity threshold
            assert r.uniformity_passed == (r.uniformity_p > 1e-4)

    def test_report_round_trips_through_json(self):
        config = small_battery_config(count=3)
        seqs = [rng.random_bits(2048, seed=58, stream=i) for i in range(3)]
        report = st.run_battery(seqs, config)
        payload = json.loads(json.dumps(report.to_dict()))
        assert len(payload["streams"]) == 10
        # three sequences are too few for the 10-bin uniformity check
        assert all(s["uniformity_p"] is None for s in payload["streams"])
        assert payload["not_implemented"] == list(st.NOT_IMPLEMENTED)
        assert "proportion_mode" not in payload

    def test_biased_sequences_fail(self):
        gen = np.random.default_rng(60)
        seqs = [(gen.random(2048) < 0.6).astype(np.uint8) for _ in range(10)]
        report = st.run_battery(seqs, small_battery_config())
        assert not report.passed
        assert report.results[st.STREAMS.index("monobit")].proportion == 0.0

    def test_identical_sequences_fail_uniformity(self):
        # every sequence identical and perfectly balanced: proportions fine,
        # but p-values pile into one decile and the uniformity gate trips
        seq = np.tile([1, 1, 0, 0], 512)
        report = st.run_battery([seq] * 20,
                                small_battery_config(n=2048, count=20))
        mono = report.results[st.STREAMS.index("monobit")]
        assert mono.proportion == 1.0
        assert not mono.uniformity_passed
        assert not report.passed

    def test_count_and_length_validation(self):
        config = small_battery_config(count=2)
        seqs = [rng.random_bits(2048, seed=61, stream=i) for i in range(3)]
        with pytest.raises(ParameterError):
            st.run_battery(seqs, config)
        bad = [rng.random_bits(2048, seed=62), rng.random_bits(2047, seed=63)]
        with pytest.raises(ParameterError):
            st.run_battery(bad, config)


class TestBatteryKnownAnswers:
    def test_p_values_pinned_and_equal_to_run_test(self):
        config = st.TestConfig(sequence_bits=300_000, sequence_count=12)
        seqs = [rng.random_bits(300_000, seed=2024, stream=i) for i in range(12)]
        report = st.run_battery(seqs, config)
        got = {r.name: hashlib.sha256(r.p_values.astype("<f8").tobytes()).hexdigest()
               for r in report.results}
        assert got == BATTERY_KNOWN_ANSWERS
        for i, seq in enumerate(seqs):
            battery = [float(r.p_values[i]) for r in report.results]
            assert battery == st.run_sequence(seq, config), i

    def test_inputs_are_left_unmodified(self):
        config = small_battery_config()
        seqs = [rng.random_bits(2048, seed=75, stream=i) for i in range(10)]
        copies = [s.copy() for s in seqs]
        st.run_battery(seqs, config)
        for seq, copy in zip(seqs, copies):
            np.testing.assert_array_equal(seq, copy)

    def test_uint8_value_above_one_rejected(self):
        seqs = [rng.random_bits(2048, seed=76, stream=i) for i in range(10)]
        seqs[3][100] = 2
        with pytest.raises(ParameterError):
            st.run_battery(seqs, small_battery_config())
        with pytest.raises(ParameterError):
            st.monobit(seqs[3])

    def test_bool_and_int64_inputs_give_identical_p_values(self):
        config = small_battery_config()
        seqs = [rng.random_bits(2048, seed=77, stream=i) for i in range(10)]
        want = st.run_battery(seqs, config).to_dict()
        for dtype in (bool, np.int64):
            got = st.run_battery([s.astype(dtype) for s in seqs], config).to_dict()
            assert got == want, dtype


class TestBatteryLanes:
    """The battery's ``rng.map_blocks`` items, and what a failure leaves.

    The items are ``None``, the seven tests other than the DFT over every
    sequence, then each sequence's index, its DFT: the thread that takes
    ``None`` runs the seven tests while the others take DFTs.
    """

    @pytest.mark.parametrize("name", ["dft_spectral", "monobit"])
    def test_lane_error_is_raised_and_no_thread_is_left(self, monkeypatch, name):
        def fail(*args, **kwargs):
            raise RuntimeError(name)

        seqs = [rng.random_bits(2048, seed=84, stream=i) for i in range(10)]
        monkeypatch.setattr(st, name, fail)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=name):
            st.run_battery(seqs, small_battery_config())
        assert threading.active_count() == threads

    def test_seven_test_lane_error_cancels_pending_dfts(self, monkeypatch):
        # Each DFT waits until monobit has failed, so only the one running
        # then, and at most one taken before the cancel, can run.
        failed, dft_calls = threading.Event(), []
        real_dft = st.dft_spectral

        def dft(bits, **kwargs):
            dft_calls.append(1)
            assert failed.wait(timeout=30)
            return real_dft(bits, **kwargs)

        def monobit(bits):
            failed.set()
            raise RuntimeError("monobit")

        config = small_battery_config()
        seqs = [rng.random_bits(2048, seed=85, stream=i) for i in range(10)]
        monkeypatch.setattr(st, "dft_spectral", dft)
        monkeypatch.setattr(st, "monobit", monobit)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="monobit"):
            st.run_battery(seqs, config)
        assert len(dft_calls) < config.sequence_count
        assert threading.active_count() == threads

    def test_dft_error_stops_the_seven_test_lane(self, monkeypatch):
        # The first DFT fails within milliseconds; the seven tests take
        # 50 ms a sequence, so their thread stops long before the tenth.
        calls, real_all = [], st._all_but_dft

        def all_but_dft(bits, config):
            calls.append(1)
            time.sleep(0.05)
            return real_all(bits, config)

        def fail(*args, **kwargs):
            raise RuntimeError("dft")

        monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(st, "_all_but_dft", all_but_dft)
        monkeypatch.setattr(st, "dft_spectral", fail)
        seqs = [rng.random_bits(2048, seed=87, stream=i) for i in range(10)]
        with pytest.raises(RuntimeError, match="dft"):
            st.run_battery(seqs, small_battery_config())
        assert len(calls) < 10

    @staticmethod
    def pinned_battery(monkeypatch, cpus=2, dft_gate=None, seven_gate=None):
        """The pinned battery's stream hashes, its DFTs' (thread, sequence) in
        the order taken, and the threads that ran the seven tests.

        ``dft_gate(dfts, seven)`` runs after each DFT is recorded and
        ``seven_gate()`` before the seven tests of each sequence.
        """
        dfts, seven = [], set()
        real_dft, real_all = st.dft_spectral, st._all_but_dft
        config = st.TestConfig(sequence_bits=300_000, sequence_count=12)
        seqs = [rng.random_bits(300_000, seed=2024, stream=i) for i in range(12)]

        def all_but_dft(bits, config):
            seven.add(threading.get_ident())
            if seven_gate is not None:
                seven_gate()
            return real_all(bits, config)

        def dft(bits, **kwargs):
            index = next(i for i, s in enumerate(seqs) if np.shares_memory(s, bits))
            dfts.append((threading.get_ident(), index))
            if dft_gate is not None:
                dft_gate(dfts, seven)
            return real_dft(bits, **kwargs)

        monkeypatch.setattr(rng, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(st, "_all_but_dft", all_but_dft)
        monkeypatch.setattr(st, "dft_spectral", dft)
        report = st.run_battery(seqs, config)
        hashes = {r.name: hashlib.sha256(r.p_values.astype("<f8").tobytes()).hexdigest()
                  for r in report.results}
        return hashes, dfts, seven

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_every_dft_on_the_helper_keeps_the_pins(self, monkeypatch, cpus):
        # The seven tests wait until the other threads have taken every DFT,
        # so each sequence's DFT runs on a thread that runs no seven tests.
        # Threads switch every microsecond, so on three CPUs the two DFT
        # threads interleave in the first one's build of the work tuple.
        all_taken, before = threading.Event(), threading.active_count()

        def dft_gate(dfts, seven):
            if len(dfts) == 12:
                all_taken.set()

        def seven_gate():
            assert all_taken.wait(timeout=60)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hashes, dfts, seven = self.pinned_battery(monkeypatch, cpus, dft_gate, seven_gate)
        finally:
            sys.setswitchinterval(interval)
        threads = {thread for thread, _ in dfts}
        assert hashes == BATTERY_KNOWN_ANSWERS
        assert sorted(index for _, index in dfts) == list(range(12))
        assert len(seven) == 1 and not seven & threads
        assert len(threads) <= cpus - 1
        assert threading.active_count() == before

    def test_every_dft_on_the_caller_keeps_the_pins(self, monkeypatch):
        # The first DFT's thread builds the work tuple, then waits until the
        # thread that ran the seven tests has taken the eleven DFTs left,
        # each on rows and a grid of its own beside the shared twiddles.
        rest_taken = threading.Event()

        def dft_gate(dfts, seven):
            thread = threading.get_ident()
            if thread not in seven:
                assert rest_taken.wait(timeout=60)
            elif [t for t, _ in dfts].count(thread) == 11:
                rest_taken.set()

        hashes, dfts, seven = self.pinned_battery(monkeypatch, dft_gate=dft_gate)
        (thread,), others = seven, [t for t, _ in dfts if t not in seven]
        assert hashes == BATTERY_KNOWN_ANSWERS
        assert sorted(index for _, index in dfts) == list(range(12))
        assert [t for t, _ in dfts].count(thread) == 11 and len(others) == 1

    def test_one_cpu_runs_every_dft_on_the_caller_and_keeps_the_pins(self, monkeypatch):
        before = threading.active_count()
        hashes, dfts, seven = self.pinned_battery(monkeypatch, cpus=1)
        assert hashes == BATTERY_KNOWN_ANSWERS
        assert dfts == [(threading.get_ident(), i) for i in range(12)]
        assert seven == {threading.get_ident()}
        assert threading.active_count() == before

    def test_hand_out_gives_each_dft_once_under_fast_switching(self, monkeypatch):
        # Thread switches every microsecond: a lost or doubled hand-out would
        # show as a DFT count other than one per sequence, or as a p-value
        # table that differs from the one-thread run.
        calls, real_dft = [], st.dft_spectral

        def dft(bits, **kwargs):
            calls.append(1)
            return real_dft(bits, **kwargs)

        config = small_battery_config(count=200)
        seqs = [rng.random_bits(2048, seed=88, stream=i) for i in range(200)]
        monkeypatch.setattr(rng, "_usable_cpus", lambda: 1)
        want = st.run_battery(seqs, config).to_dict()
        monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(st, "dft_spectral", dft)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = st.run_battery(seqs, config).to_dict()
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 200
        assert got == want

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_caller_dft_error_is_raised_and_no_thread_is_left(self, monkeypatch, cpus):
        # The DFTs of the thread that ran the seven tests fail; any other
        # thread's DFT waits until one has.
        seven, failed = set(), threading.Event()
        real_all, real_dft = st._all_but_dft, st.dft_spectral

        def all_but_dft(bits, config):
            seven.add(threading.get_ident())
            return real_all(bits, config)

        def dft(bits, **kwargs):
            if threading.get_ident() in seven:
                failed.set()
                raise RuntimeError("caller dft")
            assert failed.wait(timeout=60)
            return real_dft(bits, **kwargs)

        monkeypatch.setattr(rng, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(st, "_all_but_dft", all_but_dft)
        monkeypatch.setattr(st, "dft_spectral", dft)
        seqs = [rng.random_bits(2048, seed=86, stream=i) for i in range(10)]
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="caller dft"):
            st.run_battery(seqs, small_battery_config())
        assert threading.active_count() == threads


def dft_work(n):
    """``_dft_work(n)`` with the rows and the grid filled with NaN as stale data."""
    rows, grid, twiddles, mask = st._dft_work(n)
    rows.fill(np.nan)
    grid.fill(np.nan)
    return rows, grid, twiddles, mask


def rfft_count(b):
    """The DFT test's count below T from one n-point ``scipy.fft.rfft``."""
    n = b.size
    spectrum = scipy.fft.rfft(2.0 * b - 1.0)
    return int(np.count_nonzero(np.abs(spectrum[:n // 2])
                                < math.sqrt(n * math.log(1.0 / 0.05))))


class TestDftBuffers:
    """``dft_spectral`` on caller-owned buffers, as the battery's DFT items run it."""

    @pytest.mark.parametrize("n", [1000, 1001, 4096, 100_000])
    def test_reused_buffers_give_the_allocating_p_value(self, n):
        work = dft_work(n)
        for seed in (86, 87):
            b = rng.random_bits(n, seed=seed)
            assert st.dft_spectral(b, work=work) == st.dft_spectral(b), seed

    @pytest.mark.parametrize("n", [1000, 1001, 123_457, 1_000_000])
    def test_spectrum_matches_scipy_bit_for_bit(self, n):
        # The p-value reads the spectrum only through its count below T,
        # and on reused buffers that count is exactly scipy's single rfft's.
        work = dft_work(n)
        for seed in (88, 89, 90):
            b = rng.random_bits(n, seed=seed)
            assert st._dft_count(b, work) == rfft_count(b), seed

    def test_reused_buffers_trace_less_than_a_byte_per_bit(self):
        n = 1_000_000
        b, work = rng.random_bits(n, seed=91), dft_work(n)
        tracemalloc.start()
        try:
            st.dft_spectral(b, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n

    # 2000 bits split as 50 x 40, so the rows buffer is 40 x 50 and the grid,
    # twiddles and mask are 40 x 26; the "x" cases give a wrong rows buffer,
    # and the "spectrum" cases a wrong grid, which holds the spectrum.
    @pytest.mark.parametrize("slot, bad", [
        (0, lambda: np.empty((40, 49))),
        (0, lambda: np.empty((40, 50), dtype=np.float32)),
        (1, lambda: np.empty((40, 25), dtype=np.complex128)),
        (1, lambda: np.empty((40, 26), dtype=np.complex64)),
        (1, lambda: np.empty((40, 26))),
        (0, lambda: np.empty((2000, 1))),
        (0, lambda: [0.0] * 2000),
        (None, lambda: np.empty(2000)),
        (None, lambda: 42),
        (None, lambda: (np.empty(2000), np.empty(1001, dtype=np.complex128))),
        (1, lambda: np.empty((40, 52), dtype=np.complex128)[:, ::2]),
        (2, lambda: np.empty((40, 27), dtype=np.complex128)),
        (3, lambda: np.ones((40, 26), dtype=np.uint8)),
    ], ids=["x-size", "x-dtype", "spectrum-size", "spectrum-dtype",
            "spectrum-real", "x-2d", "x-list", "not-a-pair", "not-iterable",
            "old-pair", "grid-strided", "twiddles-shape", "mask-dtype"])
    def test_wrong_buffers_are_refused(self, slot, bad):
        if slot is None:
            work = bad()
        else:
            work = list(st._dft_work(2000))
            work[slot] = bad()
        with pytest.raises(ParameterError, match="work"):
            st.dft_spectral(rng.random_bits(2000, seed=92), work=work)


class TestSixStepDft:
    """The six-step spectrum counts exactly what one n-point rfft counts."""

    SPLITS = {1000: (40, 25), 1001: (77, 13), 1024: (32, 32),
              123_457: (123_457, 1), 300_000: (600, 500),
              1_000_000: (1000, 1000)}

    @pytest.mark.parametrize("n", list(SPLITS))
    def test_count_is_the_single_rffts(self, monkeypatch, n):
        # With the single-transform recount refused, the six-step decides
        # every one of these counts on its own.
        def refuse(*args):
            raise AssertionError("recounted with the single rfft")

        monkeypatch.setattr(st, "_rfft_count", refuse)
        work = st._dft_work(n)
        for seed in (93, 94, 95):
            b = rng.random_bits(n, seed=seed)
            assert st._dft_count(b, work) == rfft_count(b), seed

    def test_split_is_pinned(self):
        assert {n: st._dft_split(n) for n in self.SPLITS} == self.SPLITS

    # (n1, n2) = (32, 32), (77, 13), (40, 25), (35, 30), (123457, 1).
    @pytest.mark.parametrize("n", [1024, 1001, 1000, 1050, 123_457])
    def test_mask_covers_each_k_once(self, n):
        n1, n2 = st._dft_split(n)
        mask = st._dft_work(n)[3]
        k2, k1 = np.nonzero(mask)
        k = k1 + n1 * k2
        mirrored = k >= n // 2
        assert np.all(n - k[mirrored] < n // 2)
        assert np.all((0 < 2 * k1[mirrored]) & (2 * k1[mirrored] < n1))
        stands_for = np.where(mirrored, n - k, k)
        np.testing.assert_array_equal(np.sort(stands_for), np.arange(n // 2))

    def test_wide_margin_recounts_every_sequence_and_keeps_the_pins(self, monkeypatch):
        recounts = []
        real_rfft_count = st._rfft_count

        def rfft_count_spy(*args):
            recounts.append(1)
            return real_rfft_count(*args)

        monkeypatch.setattr(st, "_dft_margin", lambda n: math.inf)
        monkeypatch.setattr(st, "_rfft_count", rfft_count_spy)
        config = st.TestConfig(sequence_bits=300_000, sequence_count=12)
        seqs = [rng.random_bits(300_000, seed=2024, stream=i) for i in range(12)]
        report = st.run_battery(seqs, config)
        got = {r.name: hashlib.sha256(r.p_values.astype("<f8").tobytes()).hexdigest()
               for r in report.results}
        assert got == BATTERY_KNOWN_ANSWERS
        assert len(recounts) == 12


class TestNullCalibration:
    def test_rejection_rates_at_alpha(self):
        # 1000 null sequences: every stream's rejection rate must sit inside
        # the 3-sigma band around alpha = 0.01, and the battery must pass
        count, n = 1000, 4096
        config = st.TestConfig(sequence_bits=n, sequence_count=count,
                               serial_pattern_bits=8,
                               approx_entropy_pattern_bits=5)
        seqs = [rng.random_bits(n, seed=1001, stream=i) for i in range(count)]
        report = st.run_battery(seqs, config)
        lo = 0.01 - 3 * math.sqrt(0.01 * 0.99 / count)
        hi = 0.01 + 3 * math.sqrt(0.01 * 0.99 / count)
        for r in report.results:
            rejection = 1.0 - r.proportion
            assert lo <= rejection <= hi, (r.name, rejection)
            assert r.uniformity_p > 1e-3, r.name
        assert report.passed
