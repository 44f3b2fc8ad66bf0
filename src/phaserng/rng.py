"""Seeded, splittable random number generation.

Randomness is always requested through (seed, stream, block) coordinates:

* ``seed``   -- the user-facing 64-bit experiment seed,
* ``stream`` -- one of the ``STREAM_*`` numbers below, one per consumer,
* ``block``  -- the index of a fixed-size block of draws.

Each (seed, stream, block) triple keys an independent bit generator via
``numpy.random.SeedSequence(seed, spawn_key=(stream, block))``, so a long
array of draws is *defined* as the concatenation of its blocks.
Sequential and windowed generation therefore produce bit-identical
output, which is what the reproducibility contract requires.  No block
uses its generator's counter or jumps, so the keying alone keeps the
blocks apart, and each draw function fixes its own bit generator:

* ``standard_normals`` and ``standard_normals_range`` (streams 0-5, the
  phase path and every noise of ``optics.simulate_trace``) fill their
  blocks from SFC64, whose normals cost about two thirds of Philox's and
  set the twin's speed;
* ``random_bits`` (the generated Toeplitz seed and the tests' bits) fills
  its blocks from Philox 4x64: its one production draw is a few thousand
  bits, so a faster generator would gain nothing, and it keeps the bits
  that the battery's seeded references were computed on.

``map_blocks`` is the one thread fan-out of every per-sample kernel (the
battery keeps its own DFT lane).  Every thread, the caller's included,
takes the next unstarted item until none remain, so the items spread
evenly over the usable CPUs.  It fills the blocks of a long draw;
``optics.simulate_trace`` runs its per-block work and its I and Q lanes
through it; ``boxcar_decimate``, ``adc_quantize`` and ``normalize_iq`` run
one lane per channel; the extractor's FFT chunks are its items too.
``map_spans`` hands out the ``SPAN``-long pieces of a kernel whose output
elements are independent: the reconstruction, the phase quantizer, and
the phase path's scaling and scatter.  Each item writes only its own slices, so the bytes never depend
on the thread count.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ParameterError, check_scalar

#: Number of draws per block.  Fixed: changing it changes every stream.
BLOCK_SIZE = 1 << 20

#: Elements per span of ``map_spans``.  Fixed, whatever the CPU count, and a
#: power of two: every span but the last holds a whole number of SIMD
#: vectors and starts with the array's alignment, so numpy's vector loops
#: and their tail handling see each element as in one whole-array call.
SPAN = 1 << 18

#: The seed contract's streams, one per consumer: turning one on moves no other's draws.
STREAM_PHASE = 0              # delay-line phase path
STREAM_INTENSITY_S = 1        # signal-arm power fluctuation
STREAM_INTENSITY_LO = 2       # local-oscillator power fluctuation
STREAM_ELECTRICAL_I = 3       # detector I electrical noise
STREAM_ELECTRICAL_Q = 4       # detector Q electrical noise
STREAM_DRIFT = 5              # slow-walk drift of phi_0
STREAM_EXTRACTOR_SEED = 100   # a generated Toeplitz seed


def check_seed(seed: int) -> int:
    """``seed`` as an int; outside the 64-bit range it is refused, not reduced."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ParameterError(f"seed must be an integer, got {type(seed).__name__}")
    return check_scalar("seed", seed, bounds=(0, 2**64 - 1))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_blocks(work, blocks) -> list:
    """``[work(block) for block in blocks]``, on min(blocks, usable CPUs) threads.

    A block is any item: an RNG block index, a channel, or a span.  ``work``
    must touch only its own item's slices: numpy's fills and ufuncs release
    the GIL, so the items run concurrently.  Every thread, the calling one
    included, takes the next unstarted item until none remain; the results
    come back in item order.  With one usable CPU all run in turn on the
    calling thread.  A failed call stops the hand-out, and every thread is
    joined before the error propagates.
    """
    blocks = list(blocks)
    workers = min(len(blocks), _usable_cpus())
    if workers <= 1:
        return [work(block) for block in blocks]
    results = [None] * len(blocks)
    items = iter(range(len(blocks)))
    lock = threading.Lock()
    failed = threading.Event()

    def take() -> None:
        while not failed.is_set():
            with lock:
                index = next(items, None)
            if index is None:
                return
            try:
                results[index] = work(blocks[index])
            except BaseException:
                failed.set()
                raise

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(take) for _ in range(workers - 1)]
        take()
        for helper in helpers:
            helper.result()
    return results


def map_spans(work, stop: int, start: int = 0) -> list:
    """``map_blocks`` over the slices of ``range(start, stop)`` cut at the multiples of ``SPAN``."""
    return map_blocks(work, [slice(max(lo, start), min(lo + SPAN, stop))
                             for lo in range(start - start % SPAN, stop, SPAN)])


def _blockwise(start: int, stop: int, seed: int, stream: int, bit_generator, dtype,
               draw, out: np.ndarray | None = None) -> np.ndarray:
    """Elements ``start:stop`` of the concatenation of the stream's blocks.

    Each block's generator is ``bit_generator`` (a ``numpy.random`` bit
    generator class) keyed by (seed, stream, block).  ``draw(gen, out)``
    fills ``out`` with the first ``out.size`` draws of a block.  Only the
    blocks overlapping the range are generated, each straight into its own
    slice of the result except a block that the range starts inside.  The
    result is ``out`` when given (a C-contiguous array of ``dtype`` and
    length ``stop - start``), else a new array.  The blocks are filled by
    ``map_blocks``; every block has its own generator, so the bytes do not
    depend on the thread count.
    """
    start = check_scalar("start", start, bounds=(0, None))
    stop = check_scalar("stop", stop, bounds=(start, None))
    seed = check_seed(seed)
    if out is None:
        out = np.empty(stop - start, dtype=dtype)
    elif not (isinstance(out, np.ndarray) and out.dtype == dtype
              and out.shape == (stop - start,) and out.flags.c_contiguous
              and out.flags.writeable):
        raise ParameterError(
            f"out must be a writeable C-contiguous {np.dtype(dtype).name} array of "
            f"shape ({stop - start},)")

    def fill(block: int) -> None:
        lo = block * BLOCK_SIZE
        hi = min(lo + BLOCK_SIZE, stop)
        gen = np.random.Generator(bit_generator(
            np.random.SeedSequence(seed, spawn_key=(int(stream), block))))
        if lo >= start:
            draw(gen, out[lo - start:hi - start])
        else:
            head = np.empty(hi - lo, dtype=dtype)
            draw(gen, head)
            out[:hi - start] = head[start - lo:]

    map_blocks(fill, range(start // BLOCK_SIZE, -(-stop // BLOCK_SIZE)))
    return out


def standard_normals(count: int, seed: int, stream: int = 0) -> np.ndarray:
    """Return ``count`` i.i.d. standard normal draws for (seed, stream).

    The output is the concatenation of BLOCK_SIZE-long blocks, each produced
    by its own SFC64 instance keyed by (seed, stream, block), so any
    contiguous partition of the block range can be generated independently.
    SFC64 rather than Philox: the normals are the twin's largest draw, and
    SFC64 fills them in about two thirds of the time.
    """
    return standard_normals_range(0, count, seed, stream)


def standard_normals_range(start: int, stop: int, seed: int, stream: int = 0, *,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Draws ``start:stop`` of the stream, identical to a slice of the whole.

    Generates only the blocks overlapping the range, so a long stream can
    be consumed in windows without materializing it.  With ``out`` (a
    C-contiguous float64 array of length ``stop - start``, else
    ``ParameterError``) the draws are written there and ``out`` returned,
    so a caller can draw straight into a slice of its own working array.
    """
    return _blockwise(start, stop, seed, stream, np.random.SFC64, np.float64,
                      lambda gen, block: gen.standard_normal(out=block), out)


def random_bits(count: int, seed: int, stream: int = 0) -> np.ndarray:
    """Return ``count`` uniform bits (uint8 0/1) for (seed, stream).

    Each BLOCK_SIZE-long block comes from its own Philox 4x64 instance keyed
    by (seed, stream, block).
    """
    def draw(gen, out):
        out[:] = gen.integers(0, 2, size=out.size, dtype=np.uint8)

    return _blockwise(0, count, seed, stream, np.random.Philox, np.uint8, draw)
