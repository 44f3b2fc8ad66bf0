import hashlib
import json
import math
import threading
import tracemalloc

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
# any reordering of the battery must reproduce these bit for bit.
BATTERY_KNOWN_ANSWERS = {
    "monobit": "9d86ef291be2cba7be014f56234933cef0d4a0fdb62d803539ae4342b560eaeb",
    "block-frequency": "189ee19c8f15cfe0373f91c6ff1cadc5209705e3365a06c6cff5006b7b7bf86a",
    "runs": "7912a6f823cc6448a6265bbfe78be36ec9338821575c2dd22a2a51e8609454e8",
    "longest-run": "4e4b07a5e0c387939a03e56acdf282b36b17cd2f178c0b7eee2008c5b04b84bb",
    "cumulative-sums-forward":
        "92d44907f50d0928b7274d724a848772ebd8770f9cc2388d505c7862b54aecff",
    "cumulative-sums-backward":
        "87f2325ffcbcc6fdc90b8777dadd27e537fc68a7c53a26485624ac08439c9e0d",
    "serial-first": "871a4a902c2f508c79846b55c3827288bfc07f3ec40a433d6f8c2064d1378a7f",
    "serial-second": "e5838d465498f51f08dd60ff28051fadd40756c09c2e3040bcef4fdb8d7e4a22",
    "approximate-entropy":
        "1c8b4b76b76ebd2a235eb5ed039f4dd0600c5119365b619536ac0b346327dfcb",
    "dft-spectral": "efd13022d5c61c4ab5a71601880be847357dee802a6bed61c9035ee06f0e7da3",
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
    """``_pattern_counts`` as one doubling pass over the whole sequence."""
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
    """``cumulative_sums`` as one int32 walk over the whole sequence."""
    walk = np.cumsum(b.view(np.int8) * 2 - 1, dtype=np.int32)
    low, high, total = min(0, int(walk.min())), max(0, int(walk.max())), int(walk[-1])
    fwd, bwd = max(high, -low), max(total - low, high - total)
    return [st._cusum_p(fwd, b.size), st._cusum_p(bwd, b.size)]


def longest_run_unwindowed(b):
    """``longest_run`` with every block's longest run found in one call."""
    for min_bits, block, lo, hi, probs in st._LONGEST_RUN_TABLE:
        if b.size >= min_bits:
            break
    n_blocks = b.size // block
    lengths = st._max_run_per_row(b[:n_blocks * block].reshape(n_blocks, block))
    classes = np.clip(lengths, lo, hi) - lo
    counts = np.bincount(classes, minlength=hi - lo + 1)
    expected = n_blocks * np.asarray(probs)
    chi_sq = float(np.sum((counts - expected) ** 2 / expected))
    return [float(gammaincc(len(probs) / 2.0 - 0.5, chi_sq / 2.0))]


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
        np.testing.assert_array_equal(st._max_run_per_row(blocks), [2, 0, 4])

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
        seq = rng.random_bits(2000, seed=49)
        comp = (1 - seq).astype(np.uint8)
        assert st.monobit(seq) == st.monobit(comp)
        assert st.runs(seq) == st.runs(comp)
        n_runs = lambda b: int(np.count_nonzero(np.diff(b.astype(np.int8)))) + 1
        assert n_runs(seq) == n_runs(comp)


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
    """The DFT lane beside the other seven tests, and what a failure leaves."""

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
        # then, and at most one the worker took before the cancel, can run.
        failed, dft_calls = threading.Event(), []
        real_dft = st.dft_spectral

        def dft(bits, **kwargs):
            dft_calls.append(1)
            failed.wait(timeout=30)
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


def dft_work(n):
    """A (x, spectrum) pair for an n-bit DFT, filled with NaN as stale data."""
    return (np.full(n, np.nan),
            np.full(n // 2 + 1, np.nan, dtype=np.complex128))


class TestDftBuffers:
    """``dft_spectral`` on caller-owned buffers, as the battery's DFT lane runs it."""

    @pytest.mark.parametrize("n", [1000, 1001, 4096, 100_000])
    def test_reused_buffers_give_the_allocating_p_value(self, n):
        work = dft_work(n)
        for seed in (86, 87):
            b = rng.random_bits(n, seed=seed)
            assert st.dft_spectral(b, work=work) == st.dft_spectral(b), seed

    @pytest.mark.parametrize("n", [1000, 1001, 123_457, 1_000_000])
    def test_spectrum_matches_scipy_bit_for_bit(self, n):
        work = dft_work(n)
        for seed in (88, 89, 90):
            b = rng.random_bits(n, seed=seed)
            st.dft_spectral(b, work=work)
            oracle = scipy.fft.rfft(2.0 * b - 1.0)
            np.testing.assert_array_equal(work[1].view(np.uint64),
                                          oracle.view(np.uint64),
                                          err_msg=f"seed={seed}")

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

    @pytest.mark.parametrize("work", [
        (np.empty(1999), np.empty(1001, dtype=np.complex128)),
        (np.empty(2000, dtype=np.float32), np.empty(1001, dtype=np.complex128)),
        (np.empty(2000), np.empty(1000, dtype=np.complex128)),
        (np.empty(2000), np.empty(1001, dtype=np.complex64)),
        (np.empty(2000), np.empty(1001)),
        (np.empty((2000, 1)), np.empty(1001, dtype=np.complex128)),
        ([0.0] * 2000, np.empty(1001, dtype=np.complex128)),
        np.empty(2000),
        42,
    ], ids=["x-size", "x-dtype", "spectrum-size", "spectrum-dtype",
            "spectrum-real", "x-2d", "x-list", "not-a-pair", "not-iterable"])
    def test_wrong_buffers_are_refused(self, work):
        with pytest.raises(ParameterError, match="work"):
            st.dft_spectral(rng.random_bits(2000, seed=92), work=work)


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
