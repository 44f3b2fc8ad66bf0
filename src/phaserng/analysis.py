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
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft
from scipy.special import ndtr

from .errors import DegenerateDataError, ParameterError, check_scalar

#: Length of each chunk's transform in :func:`autocorrelation`: the chunk
#: (this less max_lag samples, and at least max_lag) and its zero padding.
#: A power of two, which transforms about five times faster than the
#: 2*3^8*5 = 65,610 points that chunks of 2^16 samples needed at lag 50.
_ACF_CHUNK = 1 << 14


@dataclass(frozen=True)
class Histogram:
    """Binned counts with explicit edges.

    ``bin_edges`` has length B+1 and is strictly increasing; ``counts`` has
    length B, and ``total`` is their sum.  Out-of-range data must be
    handled by the caller before binning (``from_data`` counts only
    in-range points).
    """

    bin_edges: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

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
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

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
        bins = check_scalar("bins", bins, bounds=(1, None))
        counts, edges = np.histogram(arr, bins=bins, range=value_range)
        return cls(bin_edges=edges, counts=counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def probabilities(self) -> np.ndarray:
        total = self.total
        if total == 0:
            raise DegenerateDataError("histogram is empty")
        return self.counts / total


@dataclass(frozen=True)
class ReferenceLaw:
    """Closed-form reference distribution, described by its CDF alone.

    Each constructor (``gaussian``, ``uniform``, ``arcsine``,
    ``gaussian_fit``) checks its own parameters and binds the law's CDF; a
    histogram compares with its ``bin_masses``.  The arcsine law with
    amplitude A is the distribution of A*cos(U) for uniform U, supported
    on [-A, A].
    """

    _cdf: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    @classmethod
    def gaussian(cls, mean: float, variance: float) -> "ReferenceLaw":
        mean = float(mean)
        if not math.isfinite(mean):
            raise ParameterError(f"gaussian mean must be finite, got {mean}")
        scale = math.sqrt(check_scalar("variance", variance))
        return cls(lambda x: ndtr((x - mean) / scale))

    @classmethod
    def uniform(cls, a: float, b: float) -> "ReferenceLaw":
        a, b = float(a), float(b)
        if not -math.inf < a < b < math.inf:
            raise ParameterError(f"uniform requires finite a < b, got ({a}, {b})")
        return cls(lambda x: np.clip((x - a) / (b - a), 0.0, 1.0))

    @classmethod
    def arcsine(cls, amplitude: float) -> "ReferenceLaw":
        """Arcsine law on [-amplitude, amplitude].  Its CDF takes ``math.asin``
        one point at a time: numpy's ``arcsin`` picks its SIMD loop at run
        time, and the loops differ in the last bit.  The pipeline passes only
        bin edges, at most ``histogram_bins + 1`` of them."""
        amp = check_scalar("amplitude", amplitude)

        def cdf(x: np.ndarray) -> np.ndarray:
            angles = [math.asin(min(max(v / amp, -1.0), 1.0)) for v in x.ravel().tolist()]
            return 0.5 + np.reshape(angles, x.shape) / math.pi
        return cls(cdf)

    @classmethod
    def gaussian_fit(cls, data) -> "ReferenceLaw":
        """Gaussian with the sample mean and (biased) sample variance."""
        arr = np.asarray(data, dtype=np.float64)
        if arr.size < 2:
            raise ParameterError("need at least 2 points to fit a gaussian")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("gaussian_fit data must be finite")
        var = float(arr.var())
        if var <= 0.0:
            raise DegenerateDataError("zero-variance data cannot be gaussian-fitted")
        return cls.gaussian(float(arr.mean()), var)

    def cdf(self, x) -> np.ndarray:
        """P(X <= x) at each point of ``x``, float64 in ``x``'s shape."""
        return self._cdf(np.asarray(x, dtype=np.float64))

    def bin_masses(self, bin_edges) -> np.ndarray:
        """Probability mass the law assigns to each bin (CDF differences)."""
        return np.diff(self.cdf(bin_edges))


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
    semidefinite.  The series is cut into chunks of C = max(``_ACF_CHUNK``
    - max_lag, max_lag) samples.  The pairs inside a chunk come from one
    transform per chunk: the chunks' power spectra are summed and inverted
    once.  As max_lag <= C, a pair straddles at most one chunk edge; those
    pairs are the correlation of the max_lag samples before each edge with
    the max_lag after it, from one batched transform of length
    ``next_fast_len(2 * max_lag)``.  Memory stays O(C + max_lag) beyond
    the input.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ParameterError("series must be 1-D")
    max_lag = check_scalar("max_lag", max_lag, bounds=(0, x.size - 1))
    count = x.size
    chunk = max(_ACF_CHUNK - max_lag, max_lag)
    # Centred, with max_lag zeros after it: every edge has max_lag samples
    # on each side, and the zeros add no pair.
    centred = np.zeros(count + max_lag)
    np.subtract(x, x.mean(), out=centred[:count])
    nfft = sp_fft.next_fast_len(chunk + max_lag, real=True)
    power = np.zeros(nfft // 2 + 1)
    for s in range(0, count, chunk):
        spec = sp_fft.rfft(centred[s:s + chunk], nfft)
        power += spec.real ** 2
        power += spec.imag ** 2
    acov = sp_fft.irfft(power, nfft)[:max_lag + 1]
    edges = np.arange(chunk, count, chunk)
    if max_lag and edges.size:
        # Row r holds the max_lag samples before edge r, then the max_lag
        # after it; a batch of rows is about one chunk long.
        nside = sp_fft.next_fast_len(2 * max_lag, real=True)
        sides = np.arange(-max_lag, max_lag)
        cross = np.zeros(nside // 2 + 1, dtype=np.complex128)
        batch = max(1, chunk // max_lag)
        for b in range(0, edges.size, batch):
            spec = sp_fft.rfft(centred[edges[b:b + batch, None] + sides]
                               .reshape(-1, 2, max_lag), nside)
            cross += (spec[:, 1].conj() * spec[:, 0]).sum(axis=0)
        # Entry j of the inverse sums after[q] * before[q + j]: the pairs
        # max_lag - j apart.
        acov[1:] += sp_fft.irfft(cross, nside)[max_lag - 1::-1]
    if acov[0] <= 0.0:
        raise DegenerateDataError("series variance is zero")
    out = acov / acov[0]
    out[0] = 1.0
    return out
