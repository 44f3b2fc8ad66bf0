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


def test_check_seed_keeps_64_bit_seeds():
    assert rng.check_seed(np.int64(12)) == 12
    assert type(rng.check_seed(np.int64(12))) is int
    assert rng.check_seed(2**64 - 1) == 2**64 - 1


# Refused with [simulation] seed's message, not reduced mod 2**64: 2**64 + 3
# would otherwise run seed 3's experiment.
@pytest.mark.parametrize("bad", [-1, 2**64, 2**64 + 3])
def test_check_seed_refuses_seeds_outside_64_bits(bad):
    with pytest.raises(ParameterError,
                       match=r"^seed must be an integer in \[0, 18446744073709551615\]"):
        rng.check_seed(bad)


# A bool is an int to isinstance, but True would run seed 1's experiment.
@pytest.mark.parametrize("bad", [1.5, "7", None, True])
def test_check_seed_rejects_non_integers(bad):
    with pytest.raises(ParameterError, match="^seed must be an integer, got"):
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


@pytest.mark.parametrize("start, stop", [(0, 0), (2345, 7890),
                                         (rng.BLOCK_SIZE - 100, rng.BLOCK_SIZE + 200)])
def test_range_into_out_equals_the_allocating_call(cpus, start, stop):
    out = np.full(stop - start, np.nan)
    got = rng.standard_normals_range(start, stop, seed=8, stream=2, out=out)
    assert got is out
    assert_array_equal(out, rng.standard_normals_range(start, stop, seed=8, stream=2))


@pytest.mark.parametrize("out", [
    np.empty(10, dtype=np.float32), np.empty(11), np.empty(9), np.empty((2, 5)),
    np.empty(20)[::2], [0.0] * 10,
], ids=["float32", "too-long", "too-short", "2-d", "strided", "list"])
def test_range_refuses_a_wrong_out(out):
    with pytest.raises(ParameterError, match="out must be"):
        rng.standard_normals_range(5, 15, seed=1, out=out)


def test_a_failing_fill_raises_and_leaves_no_thread(cpus):
    def draw(gen, out):
        if out.size == 10:  # the last block of the range
            raise RuntimeError("fill failed")
        gen.standard_normal(out=out)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="fill failed"):
        rng._blockwise(0, 3 * rng.BLOCK_SIZE + 10, 3, 0, np.float64, draw)
    assert threading.active_count() == before

    # With many items queued, the failing first item stops the hand-out:
    # every other item waits until it fails, so each thread finishes the
    # item it holds and takes at most a few more before it sees the failure.
    started, failing = [], threading.Event()

    def work(item):
        started.append(item)
        if item == 0:
            failing.set()
            raise RuntimeError("item failed")
        failing.wait(timeout=30)

    with pytest.raises(RuntimeError, match="item failed"):
        rng.map_blocks(work, range(1000))
    assert threading.active_count() == before
    assert len(started) < 100


def test_every_thread_takes_items_and_the_results_keep_their_order(monkeypatch):
    # Each item waits at a two-party barrier, so the items run in pairs on
    # two threads: a hand-out that left the calling thread one item would
    # leave the third item alone at the barrier.
    monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
    barrier = threading.Barrier(2, timeout=10)
    runs = []

    def work(item):
        runs.append(threading.get_ident())
        barrier.wait()
        return item * item

    before = threading.active_count()
    assert rng.map_blocks(work, range(6)) == [0, 1, 4, 9, 16, 25]
    assert threading.active_count() == before
    assert sorted(runs.count(thread) for thread in set(runs)) == [3, 3]


def test_stream_numbers_are_distinct_pinned_integers():
    # The seed contract: changing a number moves every draw of its consumer.
    streams = {name: value for name, value in vars(rng).items()
               if name.startswith("STREAM_")}
    assert streams == {"STREAM_PHASE": 0, "STREAM_INTENSITY_S": 1,
                       "STREAM_INTENSITY_LO": 2, "STREAM_ELECTRICAL_I": 3,
                       "STREAM_ELECTRICAL_Q": 4, "STREAM_DRIFT": 5,
                       "STREAM_EXTRACTOR_SEED": 100}
    assert all(type(value) is int for value in streams.values())
