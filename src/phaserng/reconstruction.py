"""Phase reconstruction and quantization.

Takes measured I/Q voltages, normalizes each channel to unit amplitude,
recovers the optical phase as the two-argument arctangent of (V_Q, V_I) in
[-pi, pi), and quantizes phases (or voltages) into 2^n uniform bins.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDataError, ParameterError
from .optics import IQTrace

_MIN_NORMALIZE_SAMPLES = 1000


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
        if not np.all(np.isfinite(arr)):
            raise ParameterError("phases must be finite")
        if arr.min() < -np.pi or arr.max() >= np.pi:
            raise ParameterError("phases must lie in [-pi, pi)")
        object.__setattr__(self, "phases", arr)

    def __len__(self) -> int:
        return self.phases.size


@dataclass(frozen=True)
class SymbolStream:
    """Quantized symbols, each in [0, 2^bits_per_symbol)."""

    symbols: np.ndarray = field(repr=False)
    bits_per_symbol: int

    def __post_init__(self):
        n = int(self.bits_per_symbol)
        if not (1 <= n <= 16):
            raise ParameterError(f"bits_per_symbol must be in [1, 16], got {n}")
        arr = np.asarray(self.symbols)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("symbols must be a non-empty 1-D array")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ParameterError("symbols must be integers")
        if arr.min() < 0 or int(arr.max()) >= (1 << n):
            raise ParameterError(f"symbols must lie in [0, 2^{n})")
        object.__setattr__(self, "symbols", arr.astype(np.uint16))
        object.__setattr__(self, "bits_per_symbol", n)

    def __len__(self) -> int:
        return self.symbols.size


class NormalizedIQ(NamedTuple):
    trace: IQTrace
    amplitude_i: float
    amplitude_q: float


def _estimate_amplitude(values: np.ndarray, method: str) -> float:
    if method == "percentile":
        lo, hi = np.quantile(values, (0.001, 0.999))
        amplitude = 0.5 * (hi - lo)
    elif method == "arcsine-fit":
        # The arcsine law with amplitude A has variance A^2/2.
        amplitude = float(np.sqrt(2.0 * np.mean(values * values)))
    else:
        raise ParameterError(f"unknown normalization method {method!r}")
    if amplitude <= 0.0:
        raise DegenerateDataError("channel has no spread; cannot normalize")
    return float(amplitude)


def normalize_iq(trace: IQTrace, method: str = "percentile") -> NormalizedIQ:
    """Scale each channel to unit amplitude.

    Per-channel mean (DC offset) is removed first, then the amplitude is
    estimated: "percentile" takes half the spread between the 0.1% and
    99.9% quantiles (robust to noise tails); "arcsine-fit" matches the
    second moment of the arcsine law (best on clean interference data).
    Idempotent up to estimator tolerance.
    """
    if len(trace) < _MIN_NORMALIZE_SAMPLES:
        raise ParameterError(
            f"normalization needs >= {_MIN_NORMALIZE_SAMPLES} samples, got {len(trace)}")
    v_i = trace.v_i - trace.v_i.mean()
    v_q = trace.v_q - trace.v_q.mean()
    amp_i = _estimate_amplitude(v_i, method)
    amp_q = _estimate_amplitude(v_q, method)
    out = replace(trace, v_i=v_i / amp_i, v_q=v_q / amp_q)
    return NormalizedIQ(trace=out, amplitude_i=amp_i, amplitude_q=amp_q)


def reconstruct_phase(trace: IQTrace) -> PhaseSeries:
    """Phase of each (V_I, V_Q) sample via the two-argument arctangent.

    Output lies in [-pi, pi) (the +pi branch is folded onto -pi).  The
    result does not depend on the overall amplitude, only the ratio.  Exact
    (0, 0) samples map to phase 0 and are counted.
    """
    zeros = int(np.count_nonzero((trace.v_i == 0.0) & (trace.v_q == 0.0)))
    phases = np.arctan2(trace.v_q, trace.v_i)
    np.copyto(phases, -np.pi, where=(phases == np.pi))
    return PhaseSeries(phases=phases, zero_vector_count=zeros)


def quantize_uniform(values, n_bits: int, lo: float, hi: float) -> np.ndarray:
    """Uniform n-bit quantizer over [lo, hi) with saturation at both ends."""
    n_bits = int(n_bits)
    if not (1 <= n_bits <= 16):
        raise ParameterError(f"n_bits must be in [1, 16], got {n_bits}")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ParameterError(f"need finite lo < hi, got {lo}, {hi}")
    arr = np.asarray(values, dtype=np.float64)
    levels = 1 << n_bits
    scaled = (arr - lo) * (levels / (hi - lo))
    codes = np.floor(scaled)
    np.clip(codes, 0, levels - 1, out=codes)
    return codes.astype(np.uint16)


def quantize_phase(series: PhaseSeries, n: int) -> SymbolStream:
    """Quantize phases into 2^n uniform bins of width pi/2^(n-1).

    symbol = floor((phi + pi) / delta); a value rounding up to the right
    edge is clamped into the top bin, keeping the map total on [-pi, pi).
    """
    symbols = quantize_uniform(series.phases, n, -np.pi, np.pi)
    return SymbolStream(symbols=symbols, bits_per_symbol=int(n))
