"""Seeded, splittable random number generation.

All stochastic operations in this package draw from the Philox 4x64
counter-based generator.  Randomness is always requested through
(seed, stream, block) coordinates:

* ``seed``   -- the user-facing 64-bit experiment seed,
* ``stream`` -- one of the ``STREAM_*`` numbers below, one per consumer,
* ``block``  -- the index of a fixed-size block of draws.

Each (seed, stream, block) triple keys an independent Philox instance via
``numpy.random.SeedSequence``, so a long array of draws is *defined* as the
concatenation of its blocks.  Sequential and windowed generation
therefore produce bit-identical output, which is what the
reproducibility contract requires.

``map_blocks`` is the simulation's one thread fan-out: it fills the blocks
of a long draw concurrently, and ``optics.simulate_trace`` runs its per-block
work (drawing into its own arrays with ``out=``) and its I and Q lanes
through it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ParameterError, check_scalar

#: Number of draws per block.  Fixed: changing it changes every stream.
BLOCK_SIZE = 1 << 20

#: The seed contract's streams, one per consumer: turning one on moves no other's draws.
STREAM_PHASE = 0              # delay-line phase path
STREAM_INTENSITY_S = 1        # signal-arm power fluctuation
STREAM_INTENSITY_LO = 2       # local-oscillator power fluctuation
STREAM_ELECTRICAL_I = 3       # detector I electrical noise
STREAM_ELECTRICAL_Q = 4       # detector Q electrical noise
STREAM_DRIFT = 5              # slow-walk drift of phi_0
STREAM_EXTRACTOR_SEED = 100   # a generated Toeplitz seed


def _block_generator(seed: int, stream: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(int(stream), int(block)))
    return np.random.Generator(np.random.Philox(ss))


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

    A block is any item: an RNG block index, or one of ``simulate_trace``'s
    two channels.  ``work`` must touch only its own block's slices: numpy's
    fills and ufuncs release the GIL, so the blocks run concurrently.  The
    calling thread runs the first block and the other threads the rest;
    with one usable CPU all run in turn on the calling thread.  A failed call
    cancels the calls not yet started, and every thread is joined before
    the error propagates.
    """
    workers = min(len(blocks), _usable_cpus())
    if workers <= 1:
        return [work(block) for block in blocks]
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        try:
            rest = [pool.submit(work, block) for block in blocks[1:]]
            return [work(blocks[0])] + [future.result() for future in rest]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _blockwise(start: int, stop: int, seed: int, stream: int, dtype,
               draw, out: np.ndarray | None = None) -> np.ndarray:
    """Elements ``start:stop`` of the concatenation of the stream's blocks.

    ``draw(gen, out)`` fills ``out`` with the first ``out.size`` draws of a
    block.  Only the blocks overlapping the range are generated, each
    straight into its own slice of the result except a block that the range
    starts inside.  The result is ``out`` when given (a C-contiguous array of
    ``dtype`` and length ``stop - start``), else a new array.  The blocks are
    filled by ``map_blocks``; every block has its own generator, so the
    bytes do not depend on the thread count.
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
        gen = _block_generator(seed, stream, block)
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
    by its own Philox instance, so any contiguous partition of the block
    range can be generated independently.
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
    return _blockwise(start, stop, seed, stream, np.float64,
                      lambda gen, block: gen.standard_normal(out=block), out)


def random_bits(count: int, seed: int, stream: int = 0) -> np.ndarray:
    """Return ``count`` uniform bits (uint8 0/1) for (seed, stream)."""
    def draw(gen, out):
        out[:] = gen.integers(0, 2, size=out.size, dtype=np.uint8)

    return _blockwise(0, count, seed, stream, np.uint8, draw)
