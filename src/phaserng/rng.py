"""Seeded, splittable random number generation.

All stochastic operations in this package draw from the Philox 4x64
counter-based generator.  Randomness is always requested through
(seed, stream, block) coordinates:

* ``seed``   -- the user-facing 64-bit experiment seed,
* ``stream`` -- a small integer separating independent noise sources
  (phase path, signal-beam intensity, LO intensity, electrical I,
  electrical Q, drift walk, ...),
* ``block``  -- the index of a fixed-size block of draws.

Each (seed, stream, block) triple keys an independent Philox instance via
``numpy.random.SeedSequence``, so a long array of draws is *defined* as the
concatenation of its blocks.  Sequential and windowed generation
therefore produce bit-identical output, which is what the
reproducibility contract requires.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, check_scalar

#: Number of draws per block.  Fixed: changing it changes every stream.
BLOCK_SIZE = 1 << 20


def _block_generator(seed: int, stream: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                spawn_key=(int(stream), int(block)))
    return np.random.Generator(np.random.Philox(ss))


def check_seed(seed: int) -> int:
    """Validate and canonicalize a 64-bit seed."""
    if not isinstance(seed, (int, np.integer)):
        raise ParameterError(f"seed must be an integer, got {type(seed).__name__}")
    return int(seed) & (2**64 - 1)


def _blockwise(start: int, stop: int, seed: int, stream: int, dtype,
               draw) -> np.ndarray:
    """Elements ``start:stop`` of the concatenation of the stream's blocks.

    ``draw(gen, out)`` fills ``out`` with the first ``out.size`` draws of a
    block.  Only the blocks overlapping the range are generated, each
    straight into the result except a block that the range starts inside.
    """
    start = check_scalar("start", start, bounds=(0, None))
    stop = check_scalar("stop", stop, bounds=(start, None))
    seed = check_seed(seed)
    out = np.empty(stop - start, dtype=dtype)
    for block in range(start // BLOCK_SIZE, -(-stop // BLOCK_SIZE)):
        lo = block * BLOCK_SIZE
        hi = min(lo + BLOCK_SIZE, stop)
        gen = _block_generator(seed, stream, block)
        if lo >= start:
            draw(gen, out[lo - start:hi - start])
        else:
            head = np.empty(hi - lo, dtype=dtype)
            draw(gen, head)
            out[:hi - start] = head[start - lo:]
    return out


def standard_normals(count: int, seed: int, stream: int = 0) -> np.ndarray:
    """Return ``count`` i.i.d. standard normal draws for (seed, stream).

    The output is the concatenation of BLOCK_SIZE-long blocks, each produced
    by its own Philox instance, so any contiguous partition of the block
    range can be generated independently.
    """
    return standard_normals_range(0, count, seed, stream)


def standard_normals_range(start: int, stop: int, seed: int,
                           stream: int = 0) -> np.ndarray:
    """Draws ``start:stop`` of the stream, identical to a slice of the whole.

    Generates only the blocks overlapping the range, so a long stream can
    be consumed in windows without materializing it.
    """
    return _blockwise(start, stop, seed, stream, np.float64,
                      lambda gen, out: gen.standard_normal(out=out))


def random_bits(count: int, seed: int, stream: int = 0) -> np.ndarray:
    """Return ``count`` uniform bits (uint8 0/1) for (seed, stream)."""
    def draw(gen, out):
        out[:] = gen.integers(0, 2, size=out.size, dtype=np.uint8)

    return _blockwise(0, count, seed, stream, np.uint8, draw)
