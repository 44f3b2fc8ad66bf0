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
from .errors import ParameterError

#: Speed of light in vacuum, m/s (exact by SI definition).
SPEED_OF_LIGHT = 299_792_458.0

#: Default truncation of the wrapped-Gaussian sum.  Terms with |k| > 10
#: are below 1e-20 for sigma^2 <= 100.
DEFAULT_K_MAX = 10

#: Gaps of the merged time grid (one normal each) generated per chunk when
#: streaming long correlated paths.
_CHUNK_GRID_STEPS = 1 << 22

_TWO_PI = 2.0 * np.pi


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class LaserParams:
    """Laser source parameters.

    ``coherence_time`` and ``linewidth`` are locked together by
    tau_c = 1/(pi * linewidth); pass either one and the other is derived.
    Passing both is allowed only when they agree to 1e-12 relative.
    """

    linewidth: float = 0.0            # Hz
    coherence_time: float = 0.0       # s
    mean_power: float = 1.0           # W
    intensity_sigma: float = 0.0      # W, std. dev. of power fluctuations

    def __post_init__(self):
        lw = float(self.linewidth)
        tc = float(self.coherence_time)
        if lw <= 0.0 and tc <= 0.0:
            raise ParameterError("one of linewidth or coherence_time must be positive")
        if lw > 0.0 and tc > 0.0:
            derived = 1.0 / (np.pi * lw)
            if abs(derived - tc) > 1e-12 * tc:
                raise ParameterError(
                    f"linewidth {lw} Hz and coherence_time {tc} s disagree: "
                    f"expected tau_c = 1/(pi*linewidth) = {derived} s")
        elif lw > 0.0:
            object.__setattr__(self, "coherence_time", 1.0 / (np.pi * lw))
        else:
            object.__setattr__(self, "linewidth", 1.0 / (np.pi * tc))
        for name in ("linewidth", "coherence_time"):
            _require_finite(name, getattr(self, name))
        if not (float(self.mean_power) > 0.0) or not np.isfinite(self.mean_power):
            raise ParameterError(f"mean_power must be positive, got {self.mean_power}")
        if not (float(self.intensity_sigma) >= 0.0) or not np.isfinite(self.intensity_sigma):
            raise ParameterError(
                f"intensity_sigma must be non-negative, got {self.intensity_sigma}")


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
    delay_length = _require_finite("delay_length", delay_length)
    fiber_index = _require_finite("fiber_index", fiber_index)
    if delay_length < 0.0:
        raise ParameterError(f"delay_length must be >= 0, got {delay_length}")
    if fiber_index < 1.0:
        raise ParameterError(f"fiber_index must be >= 1, got {fiber_index}")
    return fiber_index * delay_length / SPEED_OF_LIGHT


def phase_variance(delay_length: float, fiber_index: float,
                   coherence_time: float) -> float:
    """Variance (rad^2) of the phase accumulated over the delay line.

    Returns 2 * (fiber_index * delay_length / c) / coherence_time.
    """
    coherence_time = _require_finite("coherence_time", coherence_time)
    if coherence_time <= 0.0:
        raise ParameterError(f"coherence_time must be > 0, got {coherence_time}")
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
    sigma_sq = _require_finite("sigma_sq", sigma_sq)
    if sigma_sq <= 0.0:
        raise ParameterError(f"sigma_sq must be > 0, got {sigma_sq}")
    k_max = int(k_max)
    if k_max < 1:
        raise ParameterError(f"k_max must be >= 1, got {k_max}")
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
                      stream: int = 0) -> PhasePath:
    """Generate ``count`` correlated delay-line phase increments.

    Sample i is phi(t_i) - phi(t_i - delay_time) for a Wiener phase phi with
    diffusion 2/tau_c and t_i = i*sample_period, so each increment is
    N(0, 2*delay_time/tau_c) exactly and increments k samples apart have
    correlation max(0, 1 - k*sample_period/delay_time).  Disjoint windows
    are drawn i.i.d.; overlapping ones come from phi drawn exactly at the
    merged window edges (draw order in the module docstring), streamed in
    chunks of ``_CHUNK_GRID_STEPS`` gaps.
    """
    count = int(count)
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    delay_time = _require_finite("delay_time", delay_time)
    sample_period = _require_finite("sample_period", sample_period)
    if delay_time <= 0.0:
        raise ParameterError(f"delay_time must be > 0, got {delay_time}")
    if sample_period <= 0.0:
        raise ParameterError(f"sample_period must be > 0, got {sample_period}")
    seed = rng.check_seed(seed)

    if sample_period >= delay_time:
        sigma = np.sqrt(2.0 * delay_time / laser.coherence_time)
        increments = sigma * rng.standard_normals(count, seed, stream)
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
            parts = []
            for first, stop, stride, sample, sigma, op in regions:
                j0 = max(0, -(-(k0 - first) // stride))
                j1 = -(-(min(stop, k1) - first) // stride)
                if j0 < j1:
                    src = slice(first + j0 * stride - k0, min(stop, k1) - k0, stride)
                    walk[src] *= sigma
                    parts.append((src, slice(sample + j0, sample + j1), op))
            walk[0] += carry
            np.cumsum(walk, out=walk)
            carry = walk[-1]
            for src, dst, op in parts:
                op(increments[dst], walk[src], out=increments[dst])

    return PhasePath(increments=increments, sample_period=sample_period)
