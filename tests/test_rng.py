import hashlib
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from phaserng import rng
from phaserng.errors import ParameterError


def test_same_seed_reproduces():
    a = rng.standard_normals(1000, seed=7)
    b = rng.standard_normals(1000, seed=7)
    assert_array_equal(a, b)


def test_different_seeds_differ():
    a = rng.standard_normals(1000, seed=7)
    b = rng.standard_normals(1000, seed=8)
    assert not np.array_equal(a, b)


def test_streams_are_independent_sequences():
    a = rng.standard_normals(1000, seed=7, stream=0)
    b = rng.standard_normals(1000, seed=7, stream=1)
    assert not np.array_equal(a, b)
    # requesting stream 1 first must not change stream 0
    assert_array_equal(a, rng.standard_normals(1000, seed=7, stream=0))


def test_prefix_stability():
    # a shorter request is a prefix of a longer one
    long = rng.standard_normals(5000, seed=3)
    short = rng.standard_normals(1200, seed=3)
    assert_array_equal(short, long[:1200])


def test_range_matches_slice_within_block():
    whole = rng.standard_normals(10_000, seed=11)
    part = rng.standard_normals_range(2345, 7890, seed=11)
    assert_array_equal(part, whole[2345:7890])


def test_range_matches_slice_across_blocks():
    n = rng.BLOCK_SIZE + 5000
    whole = rng.standard_normals(n, seed=5)
    part = rng.standard_normals_range(rng.BLOCK_SIZE - 100,
                                      rng.BLOCK_SIZE + 100, seed=5)
    assert_array_equal(part, whole[rng.BLOCK_SIZE - 100:rng.BLOCK_SIZE + 100])


def test_range_empty():
    assert rng.standard_normals_range(50, 50, seed=1).size == 0


def test_block_boundary_continuity_statistics():
    # draws spanning a block boundary stay i.i.d.: mean/var sanity
    x = rng.standard_normals_range(rng.BLOCK_SIZE - 5000,
                                   rng.BLOCK_SIZE + 5000, seed=2)
    assert abs(x.mean()) < 5.0 / np.sqrt(x.size)
    assert abs(x.var() - 1.0) < 0.1


def test_random_bits_values_and_determinism():
    bits = rng.random_bits(4096, seed=17)
    assert bits.dtype == np.uint8
    assert set(np.unique(bits)) <= {0, 1}
    assert_array_equal(bits, rng.random_bits(4096, seed=17))
    # roughly balanced
    assert abs(bits.mean() - 0.5) < 0.05


def test_check_seed_canonicalizes():
    assert rng.check_seed(2**64 + 3) == 3
    assert rng.check_seed(-1) == 2**64 - 1
    assert rng.check_seed(np.int64(12)) == 12


@pytest.mark.parametrize("bad", [1.5, "7", None])
def test_check_seed_rejects_non_integers(bad):
    with pytest.raises(ParameterError):
        rng.check_seed(bad)


def test_negative_count_rejected():
    with pytest.raises(ParameterError):
        rng.standard_normals(-1, seed=0)
    with pytest.raises(ParameterError):
        rng.random_bits(-1, seed=0)
    with pytest.raises(ParameterError):
        rng.standard_normals_range(10, 5, seed=0)


def test_zero_count():
    assert rng.standard_normals(0, seed=0).size == 0
    assert rng.random_bits(0, seed=0).size == 0


def test_known_answers_across_a_block_boundary():
    # Seed contract pinned: any change to one draw changes these digests.
    # Measured with numpy 2.4.6 before the block loops were merged; a numpy
    # whose Philox, SeedSequence or sampling algorithms changed would change
    # them as well.
    def digest(a):
        return hashlib.sha256(a.tobytes()).hexdigest()
    n = rng.BLOCK_SIZE + 7
    assert digest(rng.standard_normals(n, seed=1)) == (
        "c829aaa8bd8526cbb6eb9c69fcf8f7599dad939ca61c4943b10864735661f87e")
    assert digest(rng.random_bits(n, seed=1, stream=100)) == (
        "dfd2777f7d96a432e59bb522b8ddebc8688b408fe3af7657db08b3b965de5332")


def serial_oracle(start, stop, seed, stream, draw):
    """The stream's draws start:stop as one serial walk over its blocks."""
    first = start // rng.BLOCK_SIZE
    parts = [draw(rng._block_generator(seed, stream, first), 0)]  # sets the dtype
    for block in range(first, -(-stop // rng.BLOCK_SIZE)):
        lo = block * rng.BLOCK_SIZE
        size = min(lo + rng.BLOCK_SIZE, stop) - lo
        parts.append(draw(rng._block_generator(seed, stream, block), size))
    offset = first * rng.BLOCK_SIZE
    return np.concatenate(parts)[start - offset:stop - offset]


def normals(gen, size):
    return gen.standard_normal(size)


def bits(gen, size):
    return gen.integers(0, 2, size=size, dtype=np.uint8)


@pytest.fixture(params=[1, 2, 4], ids=lambda cpus: f"{cpus}cpu")
def cpus(request, monkeypatch):
    """Pretend to have this many usable CPUs, so each fill path runs.

    A short switch interval makes the fill threads interleave often.
    """
    monkeypatch.setattr(rng, "_usable_cpus", lambda: request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("start, stop", [
    (rng.BLOCK_SIZE // 2, 3 * rng.BLOCK_SIZE + 77),
    (rng.BLOCK_SIZE, 4 * rng.BLOCK_SIZE),
    (2 * rng.BLOCK_SIZE - 5, 2 * rng.BLOCK_SIZE + 5),
    (rng.BLOCK_SIZE + 9, rng.BLOCK_SIZE + 9),
], ids=["mid-block-4-blocks", "aligned-3-blocks", "mid-block-2-blocks", "empty"])
def test_concurrent_normals_equal_the_serial_oracle(cpus, start, stop):
    got = rng.standard_normals_range(start, stop, seed=21, stream=6)
    assert got.dtype == np.float64 and got.size == stop - start
    assert_array_equal(got, serial_oracle(start, stop, 21, 6, normals))


@pytest.mark.parametrize("count", [0, 3 * rng.BLOCK_SIZE + 5])
def test_concurrent_bits_equal_the_serial_oracle(cpus, count):
    got = rng.random_bits(count, seed=22, stream=7)
    assert got.dtype == np.uint8 and got.size == count
    assert_array_equal(got, serial_oracle(0, count, 22, 7, bits))


def test_a_failing_fill_raises_and_leaves_no_thread(cpus):
    def draw(gen, out):
        if out.size == 10:  # the last block of the range
            raise RuntimeError("fill failed")
        gen.standard_normal(out=out)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="fill failed"):
        rng._blockwise(0, 3 * rng.BLOCK_SIZE + 10, 3, 0, np.float64, draw)
    assert threading.active_count() == before
