import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from phaserng import extractor as ext
from phaserng import rng
from phaserng.errors import (FormatError, InsufficientEntropyError,
                             InsufficientInputError, ParameterError)
from phaserng.reconstruction import SymbolStream


def random_spec(gen, n_max=64, m_max=32):
    n = int(gen.integers(1, n_max + 1))
    m = int(gen.integers(1, min(n, m_max) + 1))
    seed = gen.integers(0, 2, size=n + m - 1).astype(np.uint8)
    return ext.ToeplitzSpec(input_block_bits=n, output_block_bits=m,
                            seed_bits=seed)


class TestBitStream:
    def test_msb_first_packing(self):
        stream = ext.BitStream.from_bits([1, 0, 1, 1, 0, 1, 0, 1])
        assert stream.data == bytes([0b10110101])

    def test_partial_byte_pads_with_zeros(self):
        stream = ext.BitStream.from_bits([1, 1, 1])
        assert stream.data == bytes([0b11100000])
        assert stream.bit_length == 3

    def test_round_trip(self):
        gen = np.random.default_rng(0)
        for n in (0, 1, 7, 8, 9, 64, 1000):
            bits = gen.integers(0, 2, size=n).astype(np.uint8)
            assert_array_equal(ext.BitStream.from_bits(bits).to_bits(), bits)

    def test_nonzero_pad_rejected_by_constructor(self):
        with pytest.raises(ParameterError):
            ext.BitStream(data=bytes([0xFF]), bit_length=5)

    def test_byte_count_must_match(self):
        with pytest.raises(ParameterError):
            ext.BitStream(data=bytes(2), bit_length=5)
        with pytest.raises(ParameterError):
            ext.BitStream.from_bits([2, 0])

    def test_equal_bits_compare_equal(self):
        a = ext.BitStream.from_bits([1, 0, 1])
        b = ext.BitStream(data=bytes([0b10100000]), bit_length=3)
        assert a == b

    def test_empty(self):
        stream = ext.BitStream.from_bits([])
        assert len(stream) == 0
        assert stream.data == b""


class TestToeplitzSpec:
    def test_matrix_layout(self):
        # n=3, m=2: T[i, j] = seed[i - j + 2]
        spec = ext.ToeplitzSpec(input_block_bits=3, output_block_bits=2,
                                seed_bits=np.array([1, 0, 0, 1], dtype=np.uint8))
        assert_array_equal(spec.matrix(), [[0, 0, 1], [1, 0, 0]])

    def test_matrix_is_a_read_only_view_of_the_seed(self):
        spec = ext.ToeplitzSpec.from_rng(4000, 3820, seed=1)
        t = spec.matrix()
        assert t.shape == (3820, 4000)
        assert np.shares_memory(t, spec.seed_bits)
        assert not t.flags.writeable

    def test_matrix_constant_diagonals(self):
        gen = np.random.default_rng(1)
        spec = random_spec(gen, n_max=20, m_max=16)
        t = spec.matrix()
        m, n = t.shape
        for i in range(m - 1):
            assert_array_equal(t[i + 1, 1:], t[i, :-1])

    def test_validation(self):
        good = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ParameterError):
            ext.ToeplitzSpec(input_block_bits=2, output_block_bits=3,
                             seed_bits=good)
        with pytest.raises(ParameterError):
            ext.ToeplitzSpec(input_block_bits=3, output_block_bits=2,
                             seed_bits=np.zeros(5, dtype=np.uint8))
        with pytest.raises(ParameterError):
            ext.ToeplitzSpec(input_block_bits=3, output_block_bits=2,
                             seed_bits=np.array([0, 1, 2, 0]))
        with pytest.raises(ParameterError):
            ext.ToeplitzSpec(input_block_bits=0, output_block_bits=0,
                             seed_bits=np.zeros(0, dtype=np.uint8))

    def test_from_rng_deterministic_and_stream_separated(self):
        a = ext.ToeplitzSpec.from_rng(100, 60, seed=5, stream=2)
        b = ext.ToeplitzSpec.from_rng(100, 60, seed=5, stream=2)
        c = ext.ToeplitzSpec.from_rng(100, 60, seed=5, stream=3)
        assert_array_equal(a.seed_bits, b.seed_bits)
        assert not np.array_equal(a.seed_bits, c.seed_bits)


def float_formula(rate, n, exponent):
    """m as sized through a double epsilon = 2^-exponent, or None if refused."""
    m = math.floor(n * rate + 2.0 * math.log2(2.0 ** -exponent))
    return m if m >= 1 else None


def integer_formula(rate, n, exponent, mode="lemma"):
    try:
        return ext.derive_params(rate, n, exponent, mode)[1]
    except InsufficientEntropyError:
        return None


class TestDeriveParams:
    def test_ratio_mode_reference_values(self):
        assert ext.derive_params(0.98, 4000, mode="ratio") == (4000, 3920)
        assert ext.derive_params(0.98, 4000, 0) == (4000, 3920)

    def test_lemma_mode_reference_values(self):
        # floor(4000 * 0.98) - 2 * 50 with epsilon = 2^-50
        assert ext.derive_params(0.98, 4000, mode="lemma") == (4000, 3820)
        assert ext.derive_params(0.98, 4000) == (4000, 3820)

    def test_lemma_margin_at_smallest_epsilon(self):
        # 1/epsilon would overflow a double here; the margin is exactly 2148.
        assert ext.derive_params(0.98, 4000, 1074) == (4000, 1772)
        # 2^-1075 is no double at all; the margin is 2150.
        assert ext.derive_params(0.98, 4000, 1075) == (4000, 1770)

    def test_lemma_epsilon_cost(self):
        _, loose = ext.derive_params(0.9, 10_000, 10)
        _, tight = ext.derive_params(0.9, 10_000, 80)
        assert loose - tight == 2 * (80 - 10)

    def test_small_block_cannot_fund_lemma(self):
        with pytest.raises(InsufficientEntropyError):
            ext.derive_params(1.0, 64, mode="lemma")
        with pytest.raises(InsufficientEntropyError, match="derived output length 0"):
            ext.derive_params(0.98, 4000, 1960)
        assert ext.derive_params(0.98, 4000, 1959) == (4000, 2)

    def test_ratio_mode_is_exponent_zero(self):
        for rate in (0.001, 0.5, 0.9, 0.98, 0.999, 1.0):
            for n in (1, 64, 999, 4000, 10_000, 200_000):
                for exponent in (0, 1, 50):
                    assert integer_formula(rate, n, 0) == (
                        integer_formula(rate, n, exponent, mode="ratio"))

    # Schema 10 sized m through a double epsilon = 2^-x; every config it
    # loaded keeps its m.
    def test_float_formula_on_a_grid(self):
        rates = [k / 1000 for k in range(1, 1001)] + [0.1 + 0.2]
        for rate in rates:
            for n in (1, 100, 4000, 4001, 65_536, 200_000):
                for exponent in (0, 1, 50, 1000, 1074):
                    assert integer_formula(rate, n, exponent) == (
                        float_formula(rate, n, exponent)), (rate, n, exponent)

    def test_float_formula_on_random_triples(self):
        gen = np.random.default_rng(34)
        rates = np.concatenate([gen.uniform(0.0, 1.0, 20_000),
                                gen.integers(1, 1001, 20_000) / 1000])
        ns = gen.integers(1, 200_001, rates.size)
        exponents = gen.integers(0, 1075, rates.size)
        for rate, n, exponent in zip(rates.tolist(), ns.tolist(), exponents.tolist()):
            rate = rate or 1.0
            assert integer_formula(rate, n, exponent) == (
                float_formula(rate, n, exponent)), (rate, n, exponent)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ext.derive_params(0.0, 100)
        with pytest.raises(ParameterError):
            ext.derive_params(1.5, 100)
        with pytest.raises(ParameterError):
            ext.derive_params(0.9, 0)
        with pytest.raises(ParameterError, match="epsilon_exponent"):
            ext.derive_params(0.9, 100, -1)
        with pytest.raises(ParameterError, match="epsilon_exponent"):
            ext.derive_params(0.9, 100, 1.5)
        with pytest.raises(ParameterError):
            ext.derive_params(0.9, 100, mode="exact")


def test_symbols_to_bits_hand_example():
    stream = SymbolStream(symbols=np.array([5, 2]), bits_per_symbol=3)
    bits = ext.symbols_to_bits(stream)
    assert bits.bit_length == 6
    assert_array_equal(bits.to_bits(), [1, 0, 1, 0, 1, 0])


def test_symbols_to_bits_ten_bit():
    stream = SymbolStream(symbols=np.array([1023, 0, 512]), bits_per_symbol=10)
    bits = ext.symbols_to_bits(stream)
    assert bits.bit_length == 30
    expected = [1] * 10 + [0] * 10 + [1] + [0] * 9
    assert_array_equal(bits.to_bits(), expected)


class TestExtract:
    def test_routes_agree_on_random_instances(self):
        gen = np.random.default_rng(2)
        for _ in range(60):
            spec = random_spec(gen)
            blocks = int(gen.integers(1, 4))
            x = ext.BitStream.from_bits(
                gen.integers(0, 2, spec.input_block_bits * blocks
                             + int(gen.integers(0, spec.input_block_bits))))
            fast = ext.extract(x, spec)
            naive = ext.extract_naive(x, spec)
            assert fast.bits == naive.bits
            assert fast.blocks == naive.blocks == blocks
            assert fast.discarded_bits == naive.discarded_bits

    def test_wide_blocks_cross_word_boundaries(self):
        gen = np.random.default_rng(3)
        for n in (63, 64, 65, 128, 200):
            m = n // 2 + 1
            seed = gen.integers(0, 2, n + m - 1).astype(np.uint8)
            spec = ext.ToeplitzSpec(input_block_bits=n, output_block_bits=m,
                                    seed_bits=seed)
            x = ext.BitStream.from_bits(gen.integers(0, 2, 3 * n))
            assert ext.extract(x, spec).bits == ext.extract_naive(x, spec).bits

    def test_linearity_over_gf2(self):
        gen = np.random.default_rng(4)
        for _ in range(20):
            spec = random_spec(gen)
            n = spec.input_block_bits
            x = gen.integers(0, 2, n).astype(np.uint8)
            y = gen.integers(0, 2, n).astype(np.uint8)
            tx = ext.extract(ext.BitStream.from_bits(x), spec).bits.to_bits()
            ty = ext.extract(ext.BitStream.from_bits(y), spec).bits.to_bits()
            txy = ext.extract(ext.BitStream.from_bits(x ^ y), spec).bits.to_bits()
            assert_array_equal(txy, tx ^ ty)

    def test_zero_maps_to_zero(self):
        spec = ext.ToeplitzSpec.from_rng(50, 20, seed=1)
        out = ext.extract(ext.BitStream.from_bits(np.zeros(50, np.uint8)), spec)
        assert not np.any(out.bits.to_bits())

    def test_chunks_unpack_at_unaligned_offsets(self, monkeypatch):
        # n = 97 puts every block after the first at a non-byte-aligned bit
        # offset; a budget of 64 padded rows makes the blocks span two full
        # FFT chunks plus a partial one of 22 blocks, and 50 tail bits are
        # discarded.
        gen = np.random.default_rng(5)
        spec = ext.ToeplitzSpec.from_rng(97, 41, seed=2)
        size = 256    # the power of two >= n + m - 1 = 137, in float64s
        monkeypatch.setattr(ext, "_CHUNK_BYTES", 64 * size * 8)
        assert ext._layout(spec) == (size, 7, 6, 64 * 6)
        blocks = 2 * 64 * 6 + 22
        x = ext.BitStream.from_bits(gen.integers(0, 2, 97 * blocks + 50))
        fast = ext.extract(x, spec)
        naive = ext.extract_naive(x, spec)
        assert fast.bits == naive.bits
        assert fast.blocks == naive.blocks == blocks
        assert fast.discarded_bits == naive.discarded_bits == 50

    def test_chunk_of_at_least_one_block(self, monkeypatch):
        monkeypatch.setattr(ext, "_CHUNK_BYTES", 1)
        gen = np.random.default_rng(9)
        spec = ext.ToeplitzSpec.from_rng(97, 41, seed=3)
        x = ext.BitStream.from_bits(gen.integers(0, 2, 97 * 5 + 3))
        assert ext.extract(x, spec).bits == ext.extract_naive(x, spec).bits

    def test_working_set_bounded_at_wide_blocks(self):
        # 0.76 MB of input at n = 1e5, m = 95000: float64 rows of L = 262144
        # take 2.1 MB per block, so whole-input chunks would need ~380 MB.
        spec = ext.ToeplitzSpec.from_rng(100_000, 95_000, seed=10)
        x = ext.BitStream(data=np.random.default_rng(10).bytes(760_000),
                          bit_length=8 * 760_000)
        tracemalloc.start()
        try:
            out = ext.extract(x, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.blocks == 60
        assert peak < 48e6

    def test_default_geometry_matches_oracle(self):
        spec = ext.ToeplitzSpec.from_rng(4000, 3820, seed=11)
        x = ext.BitStream.from_bits(
            np.random.default_rng(11).integers(0, 2, 3 * 4000 + 17))
        fast = ext.extract(x, spec)
        assert fast.bits == ext.extract_naive(x, spec).bits
        assert fast.blocks == 3 and fast.discarded_bits == 17

    def test_oracle_is_the_dense_product(self):
        gen = np.random.default_rng(12)
        for _ in range(30):
            spec = random_spec(gen)
            n = spec.input_block_bits
            x = gen.integers(0, 2, (int(gen.integers(1, 4)), n))
            dense = (x @ spec.matrix().astype(np.int64).T) & 1
            got = ext.extract_naive(ext.BitStream.from_bits(x.ravel()), spec)
            assert_array_equal(got.bits.to_bits(), dense.ravel())

    def test_oracle_working_set_bounded_at_default_geometry(self):
        # An int64 copy of the (3820, 4000) matrix alone would take 117 MiB;
        # the oracle copies one block's selected columns at a time.
        spec = ext.ToeplitzSpec.from_rng(4000, 3820, seed=12)
        x = ext.BitStream.from_bits(
            np.random.default_rng(12).integers(0, 2, 4 * 4000, dtype=np.uint8))
        tracemalloc.start()
        try:
            naive = ext.extract_naive(x, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert naive.blocks == 4
        assert naive.bits == ext.extract(x, spec).bits

    def test_inexact_product_raises(self, monkeypatch):
        # The rounding guard: a product off an integer by 0.25 or more is
        # refused rather than turned into bits.
        irfft = np.fft.irfft    # the name extract looks up at call time
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
        spec = ext.ToeplitzSpec.from_rng(32, 16, seed=8)
        with pytest.raises(FloatingPointError):
            ext.extract(ext.BitStream.from_bits(np.zeros(32, np.uint8)), spec)

    def test_blocks_processed_in_order(self):
        spec = ext.ToeplitzSpec.from_rng(32, 16, seed=3)
        gen = np.random.default_rng(6)
        a = gen.integers(0, 2, 32).astype(np.uint8)
        b = gen.integers(0, 2, 32).astype(np.uint8)
        separate = np.concatenate([
            ext.extract(ext.BitStream.from_bits(a), spec).bits.to_bits(),
            ext.extract(ext.BitStream.from_bits(b), spec).bits.to_bits()])
        joined = ext.extract(ext.BitStream.from_bits(np.concatenate([a, b])),
                             spec).bits.to_bits()
        assert_array_equal(joined, separate)

    def test_partial_tail_discarded_not_padded(self):
        spec = ext.ToeplitzSpec.from_rng(32, 16, seed=4)
        gen = np.random.default_rng(7)
        bits = gen.integers(0, 2, 32 + 10)
        out = ext.extract(ext.BitStream.from_bits(bits), spec)
        assert out.blocks == 1
        assert out.discarded_bits == 10
        assert out.bits.bit_length == 16

    def test_insufficient_input(self):
        spec = ext.ToeplitzSpec.from_rng(32, 16, seed=5)
        short = ext.BitStream.from_bits(np.zeros(31, np.uint8))
        for fn in (ext.extract, ext.extract_naive):
            with pytest.raises(InsufficientInputError):
                fn(short, spec)


class TestPackedRows:
    """One FFT row hashes k blocks as base-2^s digits; every case against
    the dense oracle."""

    def assert_matches_oracle(self, bits, spec):
        fast = ext.extract(bits, spec)
        naive = ext.extract_naive(bits, spec)
        assert fast.bits == naive.bits
        assert fast.blocks == naive.blocks
        assert fast.discarded_bits == naive.discarded_bits

    # With an all-ones seed and all-ones blocks every coefficient is n, the
    # largest a digit holds: 63 = 2^6 - 1 sets every bit of its 6-bit
    # digit, and 64 = 2^6 carries out of a 6-bit digit into the next block.
    @pytest.mark.parametrize("n", [63, 64, 255, 256])
    def test_all_ones_coefficients_do_not_carry(self, n):
        m = n // 2
        spec = ext.ToeplitzSpec(input_block_bits=n, output_block_bits=m,
                                seed_bits=np.ones(n + m - 1, np.uint8))
        k = ext._layout(spec)[2]
        assert k >= 4
        bits = ext.BitStream.from_bits(np.ones(n * (2 * k + 1), np.uint8))
        out = ext.extract(bits, spec)
        assert_array_equal(out.bits.to_bits(), np.full(m * (2 * k + 1), n % 2))
        self.assert_matches_oracle(bits, spec)

    # At (1500, 1432) a row holds 3 blocks; a chunk of 2 rows holds 6, so
    # 13 and 14 blocks fill two chunks and leave a row of 1 or 2 blocks.
    @pytest.mark.parametrize("blocks", [13, 14])
    def test_part_filled_last_row(self, monkeypatch, blocks):
        spec = ext.ToeplitzSpec.from_rng(1500, 1432, seed=12)
        monkeypatch.setattr(ext, "_CHUNK_BYTES", 2 * 4096 * 8)
        assert ext._layout(spec) == (4096, 11, 3, 6)
        gen = np.random.default_rng(blocks)
        self.assert_matches_oracle(
            ext.BitStream.from_bits(gen.integers(0, 2, 1500 * blocks + 9)), spec)

    # The error bound is 0 at an all-zero seed, so only the 2^53 cap on
    # n * (1 + K + ... + K^(k-1)) stops k: 4000 * (2^48 - 1) / 4095 is
    # about 2.7e14, and a fifth digit would make it about 1.1e18.
    def test_zero_seed_is_stopped_by_the_cap(self):
        zero = ext.ToeplitzSpec(input_block_bits=4000, output_block_bits=3820,
                                seed_bits=np.zeros(7819, np.uint8))
        assert ext._layout(zero)[1:3] == (12, 4)
        spec = ext.ToeplitzSpec(input_block_bits=1500, output_block_bits=1432,
                                seed_bits=np.zeros(2931, np.uint8))
        assert ext._layout(spec)[1:3] == (11, 4)
        gen = np.random.default_rng(14)
        self.assert_matches_oracle(
            ext.BitStream.from_bits(gen.integers(0, 2, 1500 * 6)), spec)

    # The bound 24 u log2(L) sqrt(n popcount) (K^k - 1)/(K - 1) against 0.25:
    # about 2.3e-3 at k = 3 and 9.4 at k = 4 for the default geometry, and
    # 6.2e-4 at k = 2 and 81 at k = 3 for n = 1e5.
    @pytest.mark.parametrize("n, m, layout", [
        (4000, 3820, (8192, 12, 3, 48)),
        (100_000, 95_000, (262144, 17, 2, 2)),
    ])
    def test_blocks_per_row(self, n, m, layout):
        assert ext._layout(ext.ToeplitzSpec.from_rng(n, m, seed=1)) == layout


class TestCountClaim:
    """The rate claim against the largest symbol count."""

    @staticmethod
    def binomial_union_bound(symbols, largest, bits, rate):
        p0 = 2.0 ** (-bits * rate)
        tail = math.fsum(math.comb(symbols, j) * p0 ** j * (1 - p0) ** (symbols - j)
                         for j in range(largest, symbols + 1))
        return min(1.0, 2 ** bits * tail)

    @pytest.mark.parametrize("bits, rate", [(1, 0.5), (2, 0.9), (4, 0.98), (10, 0.98)])
    def test_chernoff_never_below_the_binomial_tail(self, bits, rate):
        for symbols in (1, 2, 5, 17, 60, 150):
            for largest in range(symbols + 1):
                exact = self.binomial_union_bound(symbols, largest, bits, rate)
                bound = ext.max_count_bound(symbols, largest, bits, rate)
                assert 0.0 <= bound <= 1.0
                assert bound >= exact * (1 - 1e-12), (symbols, largest)

    def test_no_excess_is_no_evidence(self):
        # p0 = 2^-9.8 = 1.12e-3: 1124 of 1e6 is at the claim.
        assert ext.max_count_bound(10**6, 1124, 10, 0.98) == 1.0
        assert ext.max_count_bound(10**6, 0, 10, 0.98) == 1.0

    # The measured rows: criterion 9's config, the quick start and the
    # paper budget with the ADC on pass; a saturated ADC is refused.
    @pytest.mark.parametrize("symbols, largest, refused", [
        (20_000, 38, False), (10**6, 1083, False), (10**7, 11271, False),
        (10**6, 252470, True), (20_000, 5000, True), (100, 100, True)])
    def test_refusals(self, symbols, largest, refused):
        if refused:
            with pytest.raises(InsufficientEntropyError, match=f"{largest} times"):
                ext.check_count_claim(symbols, largest, 10, 0.98)
        else:
            ext.check_count_claim(symbols, largest, 10, 0.98)

    def test_refusal_threshold(self):
        # The bound falls through alpha between two adjacent counts.
        bounds = [ext.max_count_bound(10**6, c, 10, 0.98) for c in range(1124, 1400)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))
        first = next(c for c, b in zip(range(1124, 1400), bounds)
                     if b < ext.COUNT_TEST_ALPHA)
        ext.check_count_claim(10**6, first - 1, 10, 0.98)
        with pytest.raises(InsufficientEntropyError):
            ext.check_count_claim(10**6, first, 10, 0.98)


def test_bits_per_sample():
    spec = ext.ToeplitzSpec.from_rng(4000, 3920, seed=6)
    assert ext.bits_per_sample(10, spec) == pytest.approx(9.8)
    assert ext.bits_per_sample(8, spec) == pytest.approx(7.84)


class TestSeedFile:
    def test_round_trip(self, tmp_path):
        spec = ext.ToeplitzSpec.from_rng(100, 60, seed=7)
        path = tmp_path / "seed.bin"
        path.write_bytes(np.packbits(spec.seed_bits).tobytes())
        assert path.stat().st_size == (100 + 60 - 1 + 7) // 8
        loaded = ext.read_seed_file(path, 100, 60)
        assert_array_equal(loaded.seed_bits, spec.seed_bits)
        assert loaded.input_block_bits == 100
        assert loaded.output_block_bits == 60

    def test_pad_bits_ignored_on_read(self, tmp_path):
        # 10 seed bits -> 2 bytes; junk in the 6 pad bits must not matter
        path = tmp_path / "seed.bin"
        path.write_bytes(bytes([0b10110100, 0b11111111]))
        spec = ext.read_seed_file(path, 6, 5)
        assert_array_equal(spec.seed_bits, [1, 0, 1, 1, 0, 1, 0, 0, 1, 1])

    def test_wrong_size_rejected(self, tmp_path):
        path = tmp_path / "seed.bin"
        path.write_bytes(bytes(3))
        with pytest.raises(FormatError):
            ext.read_seed_file(path, 100, 60)
        with pytest.raises(FormatError):
            ext.read_seed_file(path, 6, 5)
