import tracemalloc

import numpy as np
import pytest
import scipy.fft
from numpy.testing import assert_array_equal
from scipy.fft import next_fast_len

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


class TestDeriveParams:
    def test_ratio_mode_reference_values(self):
        assert ext.derive_params(0.98, 4000, mode="ratio") == (4000, 3920)

    def test_lemma_mode_reference_values(self):
        # floor(4000 * 0.98 - 2 * 50) with epsilon = 2^-50
        assert ext.derive_params(0.98, 4000, mode="lemma") == (4000, 3820)

    def test_lemma_margin_at_smallest_epsilon(self):
        # 1/epsilon overflows a double here; the margin is still exactly 2148.
        assert ext.derive_params(0.98, 4000, epsilon=2.0 ** -1074) == (4000, 1772)

    def test_lemma_epsilon_cost(self):
        _, loose = ext.derive_params(0.9, 10_000, epsilon=2.0 ** -10)
        _, tight = ext.derive_params(0.9, 10_000, epsilon=2.0 ** -80)
        assert loose - tight == 2 * (80 - 10)

    def test_small_block_cannot_fund_lemma(self):
        with pytest.raises(InsufficientEntropyError):
            ext.derive_params(1.0, 64, mode="lemma")

    def test_validation(self):
        with pytest.raises(ParameterError):
            ext.derive_params(0.0, 100)
        with pytest.raises(ParameterError):
            ext.derive_params(1.5, 100)
        with pytest.raises(ParameterError):
            ext.derive_params(0.9, 0)
        with pytest.raises(ParameterError):
            ext.derive_params(0.9, 100, epsilon=1.0)
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
        size = next_fast_len(97 + 41 - 1, real=True)
        itemsize = np.dtype(ext._fft_dtype(spec, size)).itemsize
        monkeypatch.setattr(ext, "_CHUNK_BYTES", 64 * size * itemsize)
        blocks = 2 * 64 + 22
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
        # 0.76 MB of input at n = 1e5, m = 95000: float64 rows of L = 196608
        # take 1.6 MB per block, so whole-input chunks would need ~290 MB.
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

    @pytest.mark.parametrize("precision", ["chosen", "float64"])
    def test_both_precisions_match_oracle_at_default_geometry(self, precision,
                                                              monkeypatch):
        spec = ext.ToeplitzSpec.from_rng(4000, 3820, seed=11)
        assert ext._fft_dtype(spec, next_fast_len(7819, real=True)) is np.float32
        if precision == "float64":
            monkeypatch.setattr(ext, "_fft_dtype", lambda spec, size: np.float64)
        x = ext.BitStream.from_bits(
            np.random.default_rng(11).integers(0, 2, 3 * 4000 + 17))
        fast = ext.extract(x, spec)
        assert fast.bits == ext.extract_naive(x, spec).bits
        assert fast.blocks == 3 and fast.discarded_bits == 17

    def test_precision_follows_the_error_bound(self):
        # bound = 24 u log2(L) sqrt(n popcount(seed)), u = 2^-24:
        # n = 4000, all-ones seed: 0.10 -> float32; n = m = 12000, all-ones
        # seed: 0.35 -> float64.
        for n, m, dtype in ((4000, 3820, np.float32), (12000, 12000, np.float64)):
            spec = ext.ToeplitzSpec(input_block_bits=n, output_block_bits=m,
                                    seed_bits=np.ones(n + m - 1, np.uint8))
            assert ext._fft_dtype(spec, next_fast_len(n + m - 1, real=True)) is dtype

    def test_inexact_product_raises(self, monkeypatch):
        # The rounding guard: a product off an integer by 0.25 or more is
        # refused rather than turned into bits.
        irfft = scipy.fft.irfft    # the name extract looks up at call time
        monkeypatch.setattr(scipy.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
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
