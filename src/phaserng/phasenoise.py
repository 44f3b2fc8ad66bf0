"""Laser phase-diffusion model.

The laser's instantaneous phase is modeled as a Wiener process with
diffusion rate 2/tau_c, where tau_c = 1/(pi * linewidth) is the coherence
time.  The observable of interest is the phase accumulated over the
interferometer delay,

    dxi(t) = phi(t) - phi(t - T_delay),

which is zero-mean Gaussian with variance

    sigma^2 = 2 * T_delay / tau_c,        T_delay = fiber_index * length / c.

Reduced modulo 2*pi onto [-pi, pi) the increment follows the wrapped
(folded) Gaussian density

    f(x) = 1/(sigma*sqrt(2*pi)) * sum_k exp(-(x - 2*k*pi)^2 / (2*sigma^2)).

This module provides the variance law, the wrapped density, the wrapping
map, and a reproducible generator of time-correlated increment sequences.

Draw order of :func:`sample_phase_path` (part of the seed contract, schema
3).  Sample i covers (a_i, b_i] with b_i = i*T_s and a_i = b_i - T_d.  If
T_s >= T_d, sample i is sigma times normal i of the stream.  Otherwise let
h = min(floor(T_d/T_s), count - 1); the 2*count times in increasing order
are

    a_0 .. a_h                                  head, T_s apart,
    b_0, a_{h+1}, b_1, a_{h+2}, .., b_{count-h-1}   body,
    b_{count-h} .. b_{count-1}                  tail, T_s apart,

where each body gap into a b-time is T_d - h*T_s and each gap into an
a-time is T_s minus that.  The phase is 0 at a_0, and normal k of the
stream times sqrt(2*gap_k/tau_c) is its increment over gap k, so a path
consumes 2*count - 1 normals whatever the ratio.  A delay that is a whole
number of periods gives zero-length gaps, which still consume their
normal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import ParameterError, check_scalar

#: Speed of light in vacuum, m/s (exact by SI definition).
SPEED_OF_LIGHT = 299_792_458.0

#: Default truncation of the wrapped-Gaussian sum.  Terms with |k| > 10
#: are below 1e-20 for sigma^2 <= 100.
DEFAULT_K_MAX = 10

#: Gaps of the merged time grid (one normal each) generated per chunk when
#: streaming long correlated paths.
_CHUNK_GRID_STEPS = 1 << 22

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class LaserParams:
    """Laser source parameters; the linewidth is 1/(pi * coherence_time)."""

    coherence_time: float             # s
    mean_power: float = 1.0           # W
    intensity_sigma: float = 0.0      # W, std. dev. of power fluctuations

    def __post_init__(self):
        check_scalar("coherence_time", self.coherence_time)
        check_scalar("mean_power", self.mean_power)
        check_scalar("intensity_sigma", self.intensity_sigma, zero_ok=True)


@dataclass(frozen=True)
class PhasePath:
    """A sampled sequence of delay-line phase increments dxi.

    ``increments`` holds the raw (unwrapped) Gaussian increments; wrap with
    :func:`wrap_phase` when the folded value is needed.  The same seed and
    parameters always reproduce the identical array.
    """

    increments: np.ndarray = field(repr=False)
    sample_period: float

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=np.float64)
        if inc.ndim != 1 or inc.size == 0:
            raise ParameterError("increments must be a non-empty 1-D array")
        object.__setattr__(self, "increments", inc)

    def __len__(self) -> int:
        return self.increments.size


def delay_time(delay_length: float, fiber_index: float) -> float:
    """Propagation delay of a fiber delay line, T = n * L / c."""
    delay_length = check_scalar("delay_length", delay_length, zero_ok=True)
    fiber_index = check_scalar("fiber_index", fiber_index)
    if fiber_index < 1.0:
        raise ParameterError(f"fiber_index must be >= 1, got {fiber_index}")
    return fiber_index * delay_length / SPEED_OF_LIGHT


def phase_variance(delay_length: float, fiber_index: float,
                   coherence_time: float) -> float:
    """Variance (rad^2) of the phase accumulated over the delay line.

    Returns 2 * (fiber_index * delay_length / c) / coherence_time.
    """
    coherence_time = check_scalar("coherence_time", coherence_time)
    return 2.0 * delay_time(delay_length, fiber_index) / coherence_time


def wrap_phase(x):
    """Map phase(s) onto the half-open interval [-pi, pi).

    The output is congruent to ``x`` modulo 2*pi, and equal to it when
    already in range; the boundary convention sends +pi to -pi.  Accepts
    scalars or arrays.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ParameterError("wrap_phase requires finite input")
    wrapped = np.mod(arr + np.pi, _TWO_PI) - np.pi
    # Guard against round-off landing exactly on +pi.
    wrapped = np.where(wrapped >= np.pi, wrapped - _TWO_PI, wrapped)
    wrapped = np.where((arr >= -np.pi) & (arr < np.pi), arr, wrapped)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(wrapped)
    return wrapped


def wrapped_gaussian_pdf(x, sigma_sq: float, k_max: int = DEFAULT_K_MAX):
    """Density on [-pi, pi) of a zero-mean Gaussian wrapped modulo 2*pi.

    Evaluates the shifted-replica sum truncated to |k| <= k_max:

        f(x) = 1/(sigma*sqrt(2*pi)) * sum_{|k| <= k_max}
               exp(-(x - 2*k*pi)^2 / (2*sigma^2))

    With k_max >= 10 the truncation keeps the integral over [-pi, pi)
    within 1e-9 of 1 for sigma_sq <= 100; very large variances need a
    proportionally larger k_max (roughly k_max >= sigma).
    """
    sigma_sq = check_scalar("sigma_sq", sigma_sq)
    k_max = check_scalar("k_max", k_max, bounds=(1, None))
    arr = np.asarray(x, dtype=np.float64)
    sigma = np.sqrt(sigma_sq)
    k = np.arange(-k_max, k_max + 1, dtype=np.float64)
    shifted = arr[..., np.newaxis] - _TWO_PI * k
    dens = np.exp(-0.5 * (shifted / sigma) ** 2).sum(axis=-1)
    dens /= sigma * np.sqrt(_TWO_PI)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(dens)
    return dens


def sample_phase_path(laser: LaserParams, delay_time: float,
                      sample_period: float, count: int, seed: int,
                      stream: int = rng.STREAM_PHASE) -> PhasePath:
    """Generate ``count`` correlated delay-line phase increments.

    Sample i is phi(t_i) - phi(t_i - delay_time) for a Wiener phase phi with
    diffusion 2/tau_c and t_i = i*sample_period, so each increment is
    N(0, 2*delay_time/tau_c) exactly and increments k samples apart have
    correlation max(0, 1 - k*sample_period/delay_time).  Disjoint windows
    are drawn i.i.d.; overlapping ones come from phi drawn exactly at the
    merged window edges (draw order in the module docstring), streamed in
    chunks of ``_CHUNK_GRID_STEPS`` gaps.  Each chunk's scaling and scatter
    run on ``rng.map_spans``, partitioned by output sample: a sample's two
    gaps may lie in different spans of the grid, but only its own span
    writes it.  The cumulative sum runs over the whole chunk.
    """
    count = check_scalar("count", count, bounds=(1, None))
    delay_time = check_scalar("delay_time", delay_time)
    sample_period = check_scalar("sample_period", sample_period)
    seed = rng.check_seed(seed)

    if sample_period >= delay_time:
        sigma = np.sqrt(2.0 * delay_time / laser.coherence_time)
        increments = rng.standard_normals(count, seed, stream)
        increments *= sigma
    else:
        ratio = delay_time / sample_period
        head = min(int(ratio), count - 1)
        unit = 2.0 * sample_period / laser.coherence_time
        gaps = 2 * count - 1
        body_end = gaps - head
        # (first gap, stop, stride, first sample, step sigma, op) of the gaps
        # ending at head a-times, body b-times, body a-times (none when head
        # < floor(ratio), so the clipped length is unused) and tail b-times.
        regions = (
            (0, head, 1, 1, np.sqrt(unit), np.subtract),
            (head, body_end, 2, 0, np.sqrt(unit * (ratio - head)), np.add),
            (head + 1, body_end, 2, head + 1,
             np.sqrt(unit * max(head + 1 - ratio, 0.0)), np.subtract),
            (body_end, gaps, 1, count - head, np.sqrt(unit), np.add))
        increments = np.zeros(count, dtype=np.float64)
        carry = 0.0  # the phase at a_0 is the origin of the walk
        for k0 in range(0, gaps, _CHUNK_GRID_STEPS):
            k1 = min(k0 + _CHUNK_GRID_STEPS, gaps)
            walk = rng.standard_normals_range(k0, k1, seed, stream)
            # Gap first + j*stride of a region feeds sample sample + j; in
            # this chunk j runs over [j0, j1).
            live, lo, hi = [], count, 0
            for first, stop, stride, sample, sigma, op in regions:
                j0 = max(0, -(-(k0 - first) // stride))
                j1 = -(-(min(stop, k1) - first) // stride)
                if j0 < j1:
                    live.append((first - k0, stride, sample, j0, j1, sigma, op))
                    lo, hi = min(lo, sample + j0), max(hi, sample + j1)

            def pieces(samples: slice):
                """(walk slice, increments slice, sigma, op) per region, for ``samples``."""
                for first, stride, sample, j0, j1, sigma, op in live:
                    a = max(j0, samples.start - sample)
                    b = min(j1, samples.stop - sample)
                    if a < b:
                        yield (slice(first + a * stride, first + b * stride, stride),
                               slice(sample + a, sample + b), sigma, op)

            def scale(samples: slice) -> None:
                for src, _, sigma, _ in pieces(samples):
                    walk[src] *= sigma

            def scatter(samples: slice) -> None:
                for src, dst, _, op in pieces(samples):
                    op(increments[dst], walk[src], out=increments[dst])

            rng.map_spans(scale, hi, lo)
            walk[0] += carry
            np.cumsum(walk, out=walk)
            carry = walk[-1]
            rng.map_spans(scatter, hi, lo)

    return PhasePath(increments=increments, sample_period=sample_period)
