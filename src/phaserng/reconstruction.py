"""Phase reconstruction and quantization.

Takes measured I/Q voltages, normalizes each channel to unit amplitude,
recovers the optical phase as the two-argument arctangent of (V_Q, V_I) in
[-pi, pi), and quantizes phases (or voltages) into 2^n uniform bins.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import DegenerateDataError, ParameterError, check_choice, check_scalar
from .optics import IQTrace, quantize_uniform

_MIN_NORMALIZE_SAMPLES = 1000

#: Amplitude estimators of :func:`normalize_iq`: the tail-quantile half-spread.
NORMALIZE_METHODS = ("percentile",)


@dataclass(frozen=True)
class PhaseSeries:
    """Reconstructed phases in [-pi, pi).

    ``zero_vector_count`` tallies exact (0, 0) input samples, which carry
    no phase information and were mapped to 0 by convention.
    """

    phases: np.ndarray = field(repr=False)
    zero_vector_count: int = 0

    def __post_init__(self):
        arr = np.asarray(self.phases, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("phases must be a non-empty 1-D array")
        # NaN and +-inf fail these comparisons too.
        if not (arr.min() >= -np.pi and arr.max() < np.pi):
            raise ParameterError("phases must be finite and lie in [-pi, pi)")
        object.__setattr__(self, "phases", arr)

    def __len__(self) -> int:
        return self.phases.size


@dataclass(frozen=True)
class SymbolStream:
    """Quantized symbols, each in [0, 2^bits_per_symbol)."""

    symbols: np.ndarray = field(repr=False)
    bits_per_symbol: int

    def __post_init__(self):
        n = check_scalar("bits_per_symbol", self.bits_per_symbol, bounds=(1, 16))
        arr = np.asarray(self.symbols)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("symbols must be a non-empty 1-D array")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ParameterError("symbols must be integers")
        if arr.min() < 0 or int(arr.max()) >= (1 << n):
            raise ParameterError(f"symbols must lie in [0, 2^{n})")
        object.__setattr__(self, "symbols", arr.astype(np.uint16, copy=False))
        object.__setattr__(self, "bits_per_symbol", n)

    def __len__(self) -> int:
        return self.symbols.size


class NormalizedIQ(NamedTuple):
    trace: IQTrace
    amplitude_i: float
    amplitude_q: float


#: Quantiles of the amplitude estimator.
_CUTS = np.array((0.001, 0.999))
#: Strided-subsample size and the subsample rank of each tail bracket.  Rank
#: 16 of 4096 sits near the 0.4% quantile, so a bracket holds the 0.1% cut
#: unless the subsample is far from representative.
_BRACKET_SAMPLES = 4096
_BRACKET_RANK = 16


def _tail_quantiles(values: np.ndarray) -> np.ndarray:
    """``np.quantile(values, _CUTS)`` bit for bit, selecting only the tails.

    A strided subsample gives one bracket per cut.  Every value at or beyond
    a bracket is kept, so the sorted array begins with the sorted low tail
    and ends with the sorted high tail, and the order statistics either side
    of each cut are read there.  They are interpolated exactly as numpy's
    default "linear" method does.  When a bracket holds too few values the
    full ``np.quantile`` runs instead.
    """
    n = values.size
    virtual = (n - 1) * _CUTS
    gamma = virtual - np.floor(virtual)
    k_lo, k_hi = virtual.astype(np.intp)
    sample = values[::max(1, n // _BRACKET_SAMPLES)]
    rank = min(_BRACKET_RANK, sample.size - 1)
    sample = np.partition(sample, (rank, sample.size - 1 - rank))
    low = values[values <= sample[rank]]
    high = values[values >= sample[sample.size - 1 - rank]]
    k_hi -= n - high.size
    if low.size < k_lo + 2 or k_hi < 0:
        return np.quantile(values, _CUTS)
    low.partition((k_lo, k_lo + 1))
    high.partition((k_hi, k_hi + 1))
    below = np.array((low[k_lo], high[k_hi]))
    above = np.array((low[k_lo + 1], high[k_hi + 1]))
    diff = above - below
    out = below + diff * gamma
    np.subtract(above, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def normalize_iq(trace: IQTrace, method: str = "percentile") -> NormalizedIQ:
    """Scale each channel to unit amplitude.

    Per-channel mean (DC offset) is removed first; the amplitude is half
    the spread between the 0.1% and 99.9% quantiles of the centred channel
    (robust to noise tails).  "percentile" is the only ``method``.
    Idempotent up to estimator tolerance.  The channels run as two lanes
    through ``rng.map_blocks``, each with its whole-array mean and
    amplitude, into an array that the calling thread allocated.
    """
    check_choice("normalization method", method, NORMALIZE_METHODS)
    if len(trace) < _MIN_NORMALIZE_SAMPLES:
        raise ParameterError(
            f"normalization needs >= {_MIN_NORMALIZE_SAMPLES} samples, got {len(trace)}")

    def scale(lane) -> float:
        values, centred = lane
        np.subtract(values, values.mean(), out=centred)
        lo, hi = _tail_quantiles(centred)
        amplitude = float(0.5 * (hi - lo))
        if amplitude <= 0.0:
            raise DegenerateDataError("channel has no spread; cannot normalize")
        centred /= amplitude
        return amplitude

    v_i, v_q = np.empty(len(trace)), np.empty(len(trace))
    amp_i, amp_q = rng.map_blocks(scale, [(trace.v_i, v_i), (trace.v_q, v_q)])
    out = replace(trace, v_i=v_i, v_q=v_q)
    return NormalizedIQ(trace=out, amplitude_i=amp_i, amplitude_q=amp_q)


def reconstruct_phase(trace: IQTrace) -> PhaseSeries:
    """Phase of each (V_I, V_Q) sample via the two-argument arctangent.

    Output lies in [-pi, pi) (the +pi branch is folded onto -pi).  The
    result does not depend on the overall amplitude, only the ratio.  Exact
    (0, 0) samples map to phase 0 and are counted.  Runs on
    ``rng.map_spans``: each span writes its own slice of the phases.
    """
    phases = np.empty(len(trace))

    def span(s: slice) -> int:
        v_i, v_q, ph = trace.v_i[s], trace.v_q[s], phases[s]
        zero = (v_i == 0.0) & (v_q == 0.0)
        zeros = int(np.count_nonzero(zero))
        np.arctan2(v_q, v_i, out=ph)
        np.copyto(ph, -np.pi, where=(ph == np.pi))
        if zeros:      # arctan2 takes (v_i, v_q) = (-0.0, +-0.0) to +-pi
            ph[zero] = 0.0
        return zeros

    zeros = sum(rng.map_spans(span, len(phases)))
    return PhaseSeries(phases=phases, zero_vector_count=zeros)


def quantize_phase(series: PhaseSeries, n: int) -> SymbolStream:
    """Quantize phases into 2^n uniform bins of width pi/2^(n-1).

    symbol = floor((phi + pi) / delta); a value rounding up to the right
    edge is clamped into the top bin, keeping the map total on [-pi, pi).
    """
    symbols = quantize_uniform(series.phases, n, -np.pi, np.pi)
    return SymbolStream(symbols=symbols, bits_per_symbol=int(n))
