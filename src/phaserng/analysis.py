"""Randomness-quality metrics.

Histograms, min-entropy of symbol streams, Kullback-Leibler divergence of
an empirical histogram against closed-form reference laws, and FFT-based
autocorrelation.  Everything here is a pure function of its inputs.

Divergences are reported in bits (log base 2).  Reference bin masses are
always computed from CDF differences rather than midpoint densities, so
coarse binning does not bias the divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft
from scipy.special import ndtr

from .errors import DegenerateDataError, ParameterError

_TWO_PI = 2.0 * np.pi

#: Samples per chunk of :func:`autocorrelation`'s lag sums.
_ACF_CHUNK = 1 << 16


@dataclass(frozen=True)
class Histogram:
    """Binned counts with explicit edges.

    ``bin_edges`` has length B+1 and is strictly increasing; ``counts`` has
    length B and sums to ``total``.  Out-of-range data must be handled by
    the caller before binning (``from_data`` counts only in-range points).
    """

    bin_edges: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    total: int

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or edges.size < 2:
            raise ParameterError("bin_edges must be 1-D with at least 2 entries")
        if not np.all(np.diff(edges) > 0.0):
            raise ParameterError("bin_edges must be strictly increasing")
        if counts.ndim != 1 or counts.size != edges.size - 1:
            raise ParameterError("counts length must equal len(bin_edges) - 1")
        if np.any(counts < 0):
            raise ParameterError("counts must be non-negative")
        if int(counts.sum()) != int(self.total):
            raise ParameterError("total must equal sum(counts)")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", int(self.total))

    @classmethod
    def from_data(cls, data, bins: int = 256,
                  value_range: tuple[float, float] | None = None) -> "Histogram":
        """Bin ``data`` into ``bins`` uniform bins over ``value_range``.

        The range defaults to the data's min/max.  Points outside the range
        are dropped (``total`` reflects only binned points).
        """
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("data must be a non-empty 1-D array")
        if int(bins) < 1:
            raise ParameterError(f"bins must be >= 1, got {bins}")
        counts, edges = np.histogram(arr, bins=int(bins), range=value_range)
        return cls(bin_edges=edges, counts=counts, total=int(counts.sum()))

    @property
    def probabilities(self) -> np.ndarray:
        if self.total == 0:
            raise DegenerateDataError("histogram is empty")
        return self.counts / self.total


@dataclass(frozen=True)
class ReferenceLaw:
    """Closed-form reference distribution: gaussian, uniform, or arcsine.

    The arcsine law with amplitude A is the distribution of A*cos(U) for
    uniform U; its density diverges at the endpoints and is reported as 0
    outside the open interval (-A, A).
    """

    kind: str
    params: tuple[float, ...]

    _KINDS = ("gaussian", "uniform", "arcsine")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ParameterError(f"unknown reference kind {self.kind!r}")
        params = tuple(float(p) for p in self.params)
        if not all(math.isfinite(p) for p in params):
            raise ParameterError("reference parameters must be finite")
        if self.kind == "gaussian":
            if len(params) != 2 or params[1] <= 0.0:
                raise ParameterError("gaussian requires (mean, variance) with variance > 0")
        elif self.kind == "uniform":
            if len(params) != 2 or not params[0] < params[1]:
                raise ParameterError("uniform requires (a, b) with a < b")
        else:
            if len(params) != 1 or params[0] <= 0.0:
                raise ParameterError("arcsine requires (amplitude,) with amplitude > 0")
        object.__setattr__(self, "params", params)

    @classmethod
    def gaussian(cls, mean: float, variance: float) -> "ReferenceLaw":
        return cls("gaussian", (mean, variance))

    @classmethod
    def uniform(cls, a: float, b: float) -> "ReferenceLaw":
        return cls("uniform", (a, b))

    @classmethod
    def arcsine(cls, amplitude: float) -> "ReferenceLaw":
        return cls("arcsine", (amplitude,))

    @classmethod
    def gaussian_fit(cls, data) -> "ReferenceLaw":
        """Gaussian with the sample mean and (biased) sample variance."""
        arr = np.asarray(data, dtype=np.float64)
        if arr.size < 2:
            raise ParameterError("need at least 2 points to fit a gaussian")
        var = float(arr.var())
        if var <= 0.0:
            raise DegenerateDataError("zero-variance data cannot be gaussian-fitted")
        return cls("gaussian", (float(arr.mean()), var))

    def pdf(self, x):
        arr = np.asarray(x, dtype=np.float64)
        if self.kind == "gaussian":
            mean, var = self.params
            dens = np.exp(-0.5 * (arr - mean) ** 2 / var) / np.sqrt(_TWO_PI * var)
        elif self.kind == "uniform":
            a, b = self.params
            dens = np.where((arr >= a) & (arr < b), 1.0 / (b - a), 0.0)
        else:
            amp = self.params[0]
            inside = np.abs(arr) < amp
            safe = np.where(inside, arr, 0.0)
            dens = np.where(inside, 1.0 / (np.pi * np.sqrt(amp * amp - safe * safe)), 0.0)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(dens)
        return dens

    def cdf(self, x):
        arr = np.asarray(x, dtype=np.float64)
        if self.kind == "gaussian":
            mean, var = self.params
            vals = ndtr((arr - mean) / math.sqrt(var))
        elif self.kind == "uniform":
            a, b = self.params
            vals = np.clip((arr - a) / (b - a), 0.0, 1.0)
        else:
            amp = self.params[0]
            vals = 0.5 + np.arcsin(np.clip(arr / amp, -1.0, 1.0)) / np.pi
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(vals)
        return vals

    def bin_masses(self, bin_edges) -> np.ndarray:
        """Probability mass the law assigns to each bin (CDF differences)."""
        edges = np.asarray(bin_edges, dtype=np.float64)
        return np.diff(self.cdf(edges))


def symbol_counts(symbols, alphabet_size: int) -> np.ndarray:
    """Occurrences of each symbol value in [0, alphabet_size)."""
    arr = np.asarray(symbols)
    if arr.size == 0:
        raise ParameterError("symbols must be non-empty")
    if arr.min() < 0 or arr.max() >= alphabet_size:
        raise ParameterError("symbol out of range for alphabet")
    return np.bincount(arr.ravel().astype(np.int64), minlength=int(alphabet_size))


def min_entropy(counts) -> float:
    """Min-entropy in bits of the empirical distribution behind ``counts``.

    Returns -log2(max_i counts_i / total): the negative log-probability of
    the most frequent symbol.
    """
    arr = np.asarray(counts, dtype=np.int64)
    if arr.size == 0:
        raise ParameterError("counts must be non-empty")
    if np.any(arr < 0):
        raise ParameterError("counts must be non-negative")
    total = int(arr.sum())
    if total < 1:
        raise ParameterError("total count must be >= 1")
    return -math.log2(int(arr.max()) / total)


def kld(hist: Histogram, ref: ReferenceLaw) -> float:
    """Kullback-Leibler divergence (bits) of a histogram from a reference.

    D = sum over occupied bins of p_i * log2(p_i / q_i), with q_i the mass
    the reference assigns to the bin.  An occupied bin with zero reference
    mass means the supports disagree; the divergence is then +inf.
    """
    if hist.total < 1:
        raise ParameterError("histogram total must be >= 1")
    p = hist.probabilities
    q = ref.bin_masses(hist.bin_edges)
    occupied = p > 0.0
    if np.any(q[occupied] <= 0.0):
        return math.inf
    p_occ = p[occupied]
    return float(np.sum(p_occ * np.log2(p_occ / q[occupied])))


def total_variation(a: Histogram, b: Histogram) -> float:
    """Total-variation distance between two histograms on identical edges."""
    if a.bin_edges.size != b.bin_edges.size or not np.allclose(
            a.bin_edges, b.bin_edges, rtol=0.0, atol=0.0):
        raise ParameterError("histograms must share identical bin edges")
    return 0.5 * float(np.abs(a.probabilities - b.probabilities).sum())


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """Autocorrelation R(0..max_lag) with biased (1/N) normalization.

    R(k) = sum_i (x_i - mean)(x_{i+k} - mean) / (N * variance); R(0) is 1
    exactly.  The biased normalization keeps the sequence positive
    semidefinite.  The lag sums accumulate over chunks of C = ``_ACF_CHUNK``
    samples, each the FFT correlation of x[s:s+C] with x[s:s+C+max_lag], so
    memory stays O(C + max_lag) beyond the input.
    """
    x = np.asarray(series, dtype=np.float64)
    max_lag = int(max_lag)
    if x.ndim != 1:
        raise ParameterError("series must be 1-D")
    if max_lag < 0 or x.size <= max_lag:
        raise ParameterError(
            f"need series length > max_lag >= 0, got {x.size} and {max_lag}")
    x = x - x.mean()
    nfft = sp_fft.next_fast_len(_ACF_CHUNK + max_lag, real=True)
    acov = np.zeros(max_lag + 1)
    for s in range(0, x.size, _ACF_CHUNK):
        head = sp_fft.rfft(x[s:s + _ACF_CHUNK], nfft)
        span = sp_fft.rfft(x[s:s + _ACF_CHUNK + max_lag], nfft)
        acov += sp_fft.irfft(np.conj(head) * span, nfft)[:max_lag + 1]
    if acov[0] <= 0.0:
        raise DegenerateDataError("series variance is zero")
    out = acov / acov[0]
    out[0] = 1.0
    return out
