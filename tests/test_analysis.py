import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose, assert_array_equal

from phaserng import analysis as an
from phaserng.errors import DegenerateDataError, ParameterError

# Frozen reference values, computed independently with 40-digit arithmetic
# (wrapped-interval CDF differences summed exactly, then rounded to double).
KLD_U256_VS_STD_GAUSS = 1.0472710333580686   # uniform[-pi,pi) vs N(0,1), 256 bins
KLD_U256_VS_FIT_GAUSS = 0.2546033281621779   # uniform[-pi,pi) vs N(0,pi^2/3)
ARCSINE_EDGE_MASS_1024 = 0.019897607325877215
ARCSINE_HMIN_1024 = 5.651261231700643


def uniform_hist(bins=256, per_bin=1000, lo=-np.pi, hi=np.pi):
    edges = np.linspace(lo, hi, bins + 1)
    counts = np.full(bins, per_bin, dtype=np.int64)
    return an.Histogram(bin_edges=edges, counts=counts)


class TestHistogram:
    def test_from_data_counts_and_edges(self):
        hist = an.Histogram.from_data([0.1, 0.2, 0.8], bins=2,
                                      value_range=(0.0, 1.0))
        assert_array_equal(hist.counts, [2, 1])
        assert hist.total == 3
        assert_allclose(hist.bin_edges, [0.0, 0.5, 1.0])

    def test_from_data_drops_out_of_range(self):
        hist = an.Histogram.from_data([-5.0, 0.5, 5.0], bins=4,
                                      value_range=(0.0, 1.0))
        assert hist.total == 1

    def test_total_is_the_binned_count(self):
        data = np.random.default_rng(3).normal(size=1000)
        hist = an.Histogram.from_data(data, bins=16, value_range=(-1.0, 1.0))
        assert hist.total == hist.counts.sum() < data.size
        assert type(hist.total) is int

    def test_probabilities_sum_to_one(self):
        hist = an.Histogram.from_data(np.random.default_rng(0).normal(size=500))
        assert hist.probabilities.sum() == pytest.approx(1.0)

    def test_validation(self):
        edges = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ParameterError):
            an.Histogram(bin_edges=edges[::-1], counts=np.array([1, 1]))
        with pytest.raises(ParameterError):
            an.Histogram(bin_edges=edges, counts=np.array([1]))
        with pytest.raises(ParameterError):
            an.Histogram(bin_edges=edges, counts=np.array([-1, 1]))
        with pytest.raises(ParameterError):
            an.Histogram.from_data([], bins=4)


class TestReferenceLaw:
    def test_cdf_pdf_consistency_gaussian(self):
        law = an.ReferenceLaw.gaussian(0.5, 2.0)
        x = np.linspace(-4, 5, 1001)
        numeric = np.gradient(law.cdf(x), x)
        pdf = np.exp(-(x - 0.5) ** 2 / 4.0) / np.sqrt(4.0 * np.pi)
        assert_allclose(numeric, pdf, atol=2e-4)

    def test_uniform_masses(self):
        law = an.ReferenceLaw.uniform(-1.0, 1.0)
        masses = law.bin_masses(np.linspace(-1, 1, 5))
        assert_allclose(masses, 0.25)

    def test_arcsine_cdf_endpoints_and_center(self):
        law = an.ReferenceLaw.arcsine(2.0)
        assert law.cdf(-2.0) == 0.0
        assert law.cdf(0.0) == pytest.approx(0.5)
        assert law.cdf(2.0) == 1.0

    def test_arcsine_edge_mass_oracle(self):
        law = an.ReferenceLaw.arcsine(1.0)
        masses = law.bin_masses(np.linspace(-1.0, 1.0, 1025))
        assert masses[0] == pytest.approx(ARCSINE_EDGE_MASS_1024, abs=1e-15)
        assert masses[-1] == pytest.approx(ARCSINE_EDGE_MASS_1024, abs=1e-15)
        # edge bins dominate every interior bin
        assert masses[0] > masses[1:-1].max()

    def test_arcsine_pdf_zero_outside_support(self):
        # the mean density over each bin, as the histogram CSVs write it
        law = an.ReferenceLaw.arcsine(1.0)
        edges = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
        density = law.bin_masses(edges) / np.diff(edges)
        assert_array_equal(density, [0.0, 0.0, 0.5, 0.0, 0.0])

    def test_arcsine_cdf_matches_numpy_arcsin_in_any_shape(self):
        # math.asin, one point at a time, within a few ulp of numpy's arcsin
        x = np.linspace(-1.5, 1.5, 3000).reshape(3, 1000)
        expected = 0.5 + np.arcsin(np.clip(x / 1.25, -1.0, 1.0)) / np.pi
        cdf = an.ReferenceLaw.arcsine(1.25).cdf(x)
        assert cdf.shape == (3, 1000)
        assert_allclose(cdf, expected, rtol=0.0, atol=4e-16)

    def test_gaussian_fit_matches_moments(self):
        rng = np.random.default_rng(5)
        data = rng.normal(loc=2.0, scale=3.0, size=100_000)
        edges = np.linspace(-10.0, 14.0, 257)
        fit = an.ReferenceLaw.gaussian_fit(data).cdf(edges)
        assert_array_equal(fit, an.ReferenceLaw.gaussian(data.mean(), data.var()).cdf(edges))

    def test_gaussian_fit_rejects_degenerate(self):
        with pytest.raises(DegenerateDataError):
            an.ReferenceLaw.gaussian_fit(np.zeros(100))
        with pytest.raises(ParameterError):
            an.ReferenceLaw.gaussian_fit([1.0])

    @pytest.mark.parametrize("law", [
        an.ReferenceLaw.gaussian(0.5, 2.0), an.ReferenceLaw.uniform(-1.0, 1.0),
        an.ReferenceLaw.arcsine(1.25), an.ReferenceLaw.gaussian_fit([0.0, 1.0, 3.0]),
        an.ReferenceLaw.wrapped_gaussian(1.5, 2.0),
    ], ids=["gaussian", "uniform", "arcsine", "gaussian_fit", "wrapped_gaussian"])
    @pytest.mark.parametrize("x", [0.25, [-2.0, 0.0, 0.5], [[-1.0, 0.0, 1.0], [2.0, -0.5, 0.5]]],
                             ids=["scalar", "list", "2-D"])
    def test_cdf_keeps_the_shape_in_float64(self, law, x):
        cdf = law.cdf(x)
        assert cdf.dtype == np.float64
        assert cdf.shape == np.shape(x)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))

    def test_validation(self):
        with pytest.raises(ParameterError):
            an.ReferenceLaw.gaussian(0.0, 0.0)
        with pytest.raises(ParameterError):
            an.ReferenceLaw.gaussian(math.nan, 1.0)
        with pytest.raises(ParameterError):
            an.ReferenceLaw.uniform(1.0, 1.0)
        with pytest.raises(ParameterError):
            an.ReferenceLaw.uniform(-math.inf, 1.0)
        with pytest.raises(ParameterError):
            an.ReferenceLaw.arcsine(-1.0)
        # Refused before the variance, which would warn on inf or NaN.
        with pytest.raises(ParameterError, match="finite"):
            an.ReferenceLaw.gaussian_fit([0.0, math.inf])
        with pytest.raises(ParameterError, match="finite"):
            an.ReferenceLaw.gaussian_fit([1.0, math.nan, 2.0])


def wrapped_density(x, variance, centre, replicas=20):
    """Density of N(centre, variance) wrapped onto [-pi, pi), summed over
    the replicas 2*pi*k away for |k| <= ``replicas``."""
    shifted = x[..., None] - centre + 2 * np.pi * np.arange(-replicas, replicas + 1)
    return (np.exp(-shifted ** 2 / (2 * variance)).sum(axis=-1)
            / math.sqrt(2 * np.pi * variance))


class TestWrappedGaussianLaw:
    @pytest.mark.parametrize("centre", [0.0, 3.0])
    @pytest.mark.parametrize("variance", [0.03, 1.67, 10.0, 100.0])
    def test_bin_masses_match_quadrature(self, variance, centre):
        # 40-node Gauss-Legendre on each of 256 bins, each at most 0.15 sigma wide.
        edges = np.linspace(-np.pi, np.pi, 257)
        nodes, weights = np.polynomial.legendre.leggauss(40)
        half = np.diff(edges)[:, None] / 2
        x = (edges[:-1, None] + edges[1:, None]) / 2 + half * nodes
        quadrature = (half[:, 0] * (wrapped_density(x, variance, centre) @ weights))
        masses = an.ReferenceLaw.wrapped_gaussian(variance, centre).bin_masses(edges)
        assert_allclose(masses, quadrature, rtol=0.0, atol=1e-12)

    def test_centre_is_taken_modulo_two_pi(self):
        edges = np.linspace(-np.pi, np.pi, 65)
        masses = an.ReferenceLaw.wrapped_gaussian(0.5, 3.0).bin_masses(edges)
        assert_allclose(an.ReferenceLaw.wrapped_gaussian(0.5, 3.0 - 4 * np.pi)
                        .bin_masses(edges), masses, rtol=0.0, atol=1e-14)

    # The innovation bound on 10-bit symbols: the phase diffusion over one
    # sample period T_s that an adversary who knows the laser's past cannot
    # predict, variance 2*min(T_s, T_d)/tau_c, centred on a bin centre (the
    # worst case).  tau_c = 6 ns, T_d = 30 ns, an ideal detector.
    @pytest.mark.parametrize("sample_rate,bits", [
        (50e6, 9.901), (64e6, 9.801), (100e6, 9.535), (200e6, 9.043)])
    def test_innovation_bound_table(self, sample_rate, bits):
        delta = 2 * np.pi / 1024
        law = an.ReferenceLaw.wrapped_gaussian(
            2 * min(1 / sample_rate, 30e-9) / 6e-9, centre=delta / 2)
        masses = law.bin_masses(np.linspace(-np.pi, np.pi, 1025))
        assert -math.log2(masses.max()) == pytest.approx(bits, abs=5e-4)

    def test_bytes_pinned(self):
        # math.erf one edge at a time: the same bytes with every dispatched
        # numpy SIMD target on or off.
        masses = an.ReferenceLaw.wrapped_gaussian(10.0 / 6.0, 0.1).bin_masses(
            np.linspace(-np.pi, np.pi, 1025))
        assert hashlib.sha256(masses.astype("<f8").tobytes()).hexdigest() == (
            "68636b718526e78bc5bf416421525e6eab5da948f729bbeaa36beccc1cbfb4d5")


class TestMinEntropy:
    def test_hand_value(self):
        assert an.min_entropy([1, 3]) == pytest.approx(-math.log2(0.75))

    def test_uniform_counts_give_log2_bins(self):
        assert an.min_entropy(np.full(1024, 7)) == pytest.approx(10.0)

    def test_degenerate_distribution_gives_zero(self):
        assert an.min_entropy([0, 50, 0]) == 0.0

    def test_bounded_by_log2_alphabet(self):
        rng = np.random.default_rng(9)
        counts = rng.integers(0, 100, size=64)
        counts[0] += 1  # ensure non-empty
        h = an.min_entropy(counts)
        assert 0.0 <= h <= 6.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            an.min_entropy([])
        with pytest.raises(ParameterError):
            an.min_entropy([-1, 2])
        with pytest.raises(ParameterError):
            an.min_entropy([0, 0])


MIB = 2**20


def traced_peak(work) -> tuple:
    """``work()``'s result and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = work()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestSymbolCounts:
    def test_counts(self):
        counts = an.symbol_counts([0, 1, 1, 3], 4)
        assert_array_equal(counts, [1, 2, 0, 1])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint16, np.int64, np.uint64])
    def test_pieces_add_up_to_one_count(self, dtype):
        size = 3 * an._COUNT_PIECE + 5
        symbols = np.random.default_rng(8).integers(0, 200, size).astype(dtype)
        counts = an.symbol_counts(symbols, 256)
        assert counts.dtype == np.int64
        assert_array_equal(counts, np.bincount(symbols.astype(np.int64), minlength=256))

    # An int64 copy of 1e6 symbols alone would take 7.6 MiB.
    @pytest.mark.parametrize("bits", [10, 16])
    def test_one_million_symbols_in_2_mib(self, bits):
        symbols = np.random.default_rng(bits).integers(0, 1 << bits, 1_000_000).astype(np.uint16)
        counts, peak = traced_peak(lambda: an.symbol_counts(symbols, 1 << bits))
        assert counts.sum() == symbols.size
        assert peak < 2 * MIB

    def test_range_check(self):
        with pytest.raises(ParameterError):
            an.symbol_counts([4], 4)
        with pytest.raises(ParameterError):
            an.symbol_counts([-1], 4)


class TestKld:
    def test_uniform_vs_standard_gaussian_oracle(self):
        got = an.kld(uniform_hist(), an.ReferenceLaw.gaussian(0.0, 1.0))
        assert got == pytest.approx(KLD_U256_VS_STD_GAUSS, abs=1e-12)

    def test_uniform_vs_moment_matched_gaussian_oracle(self):
        got = an.kld(uniform_hist(),
                     an.ReferenceLaw.gaussian(0.0, np.pi ** 2 / 3))
        assert got == pytest.approx(KLD_U256_VS_FIT_GAUSS, abs=1e-12)

    def test_matching_law_gives_zero(self):
        got = an.kld(uniform_hist(), an.ReferenceLaw.uniform(-np.pi, np.pi))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_support_mismatch_is_infinite(self):
        hist = an.Histogram.from_data([0.5, 1.5], bins=2,
                                      value_range=(0.0, 2.0))
        assert an.kld(hist, an.ReferenceLaw.arcsine(1.0)) == math.inf

    def test_empirical_gaussian_close_to_own_law(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=200_000)
        hist = an.Histogram.from_data(data, bins=128, value_range=(-5, 5))
        got = an.kld(hist, an.ReferenceLaw.gaussian_fit(data))
        assert 0.0 <= got < 0.001

    @given(hst.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_non_negative_for_random_histograms(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(scale=rng.uniform(0.5, 2.0), size=2000)
        hist = an.Histogram.from_data(data, bins=64, value_range=(-8, 8))
        ref = an.ReferenceLaw.gaussian(0.0, 1.0)
        assert an.kld(hist, ref) >= 0.0

    def test_empty_histogram_rejected(self):
        hist = an.Histogram(bin_edges=np.array([0.0, 1.0]), counts=np.array([0]))
        with pytest.raises(ParameterError):
            an.kld(hist, an.ReferenceLaw.uniform(0.0, 1.0))


class TestKldBitsPinned:
    """kld's bits for one fixed histogram, whatever SIMD loops numpy picks.

    On an AVX-512 host ``np.log2`` misses the uniform value in its last bit,
    and a pairwise ``np.sum`` of the same terms misses the other two.
    Schema 13 moved the gaussian value by one ulp, from 0.7976579567853899:
    its CDF is ``math.erfc``'s, no longer ``scipy.special.ndtr``'s.
    """

    HIST = an.Histogram(bin_edges=np.linspace(-0.96, 0.96, 9),
                        counts=np.array([914, 882, 786, 626, 402, 114, 771, 355]))

    @pytest.mark.parametrize("law, expected", [
        (an.ReferenceLaw.uniform(-1.0, 1.0), 0.22837420746744191),
        (an.ReferenceLaw.gaussian(0.0, 1.0), 0.79765795678539),
        (an.ReferenceLaw.arcsine(1.0), 0.47819890918757774),
    ], ids=["uniform", "standard-gaussian", "arcsine"])
    def test_bits(self, law, expected):
        assert an.kld(self.HIST, law) == expected


class TestTotalVariation:
    def test_identical_is_zero(self):
        h = uniform_hist(bins=16, per_bin=10)
        assert an.total_variation(h, h) == 0.0

    def test_disjoint_is_one(self):
        edges = np.linspace(0, 1, 3)
        a = an.Histogram(bin_edges=edges, counts=np.array([10, 0]))
        b = an.Histogram(bin_edges=edges, counts=np.array([0, 10]))
        assert an.total_variation(a, b) == 1.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(13)
        edges = np.linspace(-1, 1, 33)
        ca = rng.integers(0, 50, 32)
        cb = rng.integers(0, 50, 32)
        a = an.Histogram(bin_edges=edges, counts=ca)
        b = an.Histogram(bin_edges=edges, counts=cb)
        tv = an.total_variation(a, b)
        assert tv == an.total_variation(b, a)
        assert 0.0 <= tv <= 1.0

    def test_requires_identical_edges(self):
        a = uniform_hist(bins=4)
        b = an.Histogram(bin_edges=np.linspace(-1, 1, 5),
                         counts=np.full(4, 10))
        with pytest.raises(ParameterError):
            an.total_variation(a, b)


def autocorr_direct(x, max_lag):
    # O(n * max_lag) reference implementation
    x = np.asarray(x, dtype=np.float64)
    x = x - x.mean()
    denom = np.dot(x, x)
    out = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        out[k] = np.dot(x[:x.size - k], x[k:]) / denom
    return out


def autocorrelation_centred_copy(series, max_lag):
    """``an.autocorrelation`` as it was with a whole centred copy of the
    series, max_lag zeros after it: the byte oracle of the chunked centring."""
    x = np.asarray(series, dtype=np.float64)
    count = x.size
    chunk = max(an._ACF_CHUNK - max_lag, max_lag)
    centred = np.zeros(count + max_lag)
    np.subtract(x, x.mean(), out=centred[:count])
    nfft = 1 << (chunk + max_lag - 1).bit_length()
    power = np.zeros(nfft // 2 + 1)
    for s in range(0, count, chunk):
        spec = np.fft.rfft(centred[s:s + chunk], nfft)
        power += spec.real ** 2
        power += spec.imag ** 2
    acov = np.fft.irfft(power, nfft)[:max_lag + 1]
    edges = np.arange(chunk, count, chunk)
    if max_lag and edges.size:
        nside = 1 << (2 * max_lag - 1).bit_length()
        sides = np.arange(-max_lag, max_lag)
        cross = np.zeros(nside // 2 + 1, dtype=np.complex128)
        batch = max(1, chunk // max_lag)
        for b in range(0, edges.size, batch):
            spec = np.fft.rfft(centred[edges[b:b + batch, None] + sides]
                               .reshape(-1, 2, max_lag), nside)
            after, before = spec[:, 1], spec[:, 0]
            cross.real += (after.real * before.real + after.imag * before.imag).sum(axis=0)
            cross.imag += (after.real * before.imag - after.imag * before.real).sum(axis=0)
        acov[1:] += np.fft.irfft(cross, nside)[max_lag - 1::-1]
    out = acov / acov[0]
    out[0] = 1.0
    return out


class TestAutocorrelation:
    # Chunks are 2^14 - 50 = 16334 samples at lag 50: series that end on an
    # edge, within max_lag before and after one (the last edge row then
    # reads past the end), and inside a chunk.
    @pytest.mark.parametrize("size", [3 * 16334, 3 * 16334 - 7, 3 * 16334 + 7,
                                      3 * 16334 + 5000, 16334 + 1, 1001])
    def test_bytes_equal_the_centred_copy(self, size):
        x = np.random.default_rng(size).normal(3.0, 1.0, size)
        assert an.autocorrelation(x, 50).tobytes() == \
            autocorrelation_centred_copy(x, 50).tobytes()

    @pytest.mark.parametrize("size, max_lag", [(8 * 10 + 3, 10), (8 * 10 + 9, 10),
                                               (1001, 0), (100, 99), (97, 8)])
    def test_bytes_equal_the_centred_copy_at_short_chunks(self, monkeypatch, size, max_lag):
        monkeypatch.setattr(an, "_ACF_CHUNK", 16)
        x = np.random.default_rng(size).normal(-2.0, 1.0, size)
        assert an.autocorrelation(x, max_lag).tobytes() == \
            autocorrelation_centred_copy(x, max_lag).tobytes()

    # A centred copy of 1e6 samples alone would take 7.6 MiB.
    def test_one_million_samples_in_2_mib(self):
        x = np.random.default_rng(6).uniform(-np.pi, np.pi, 1_000_000)
        r, peak = traced_peak(lambda: an.autocorrelation(x, 50))
        assert r.size == 51
        assert peak < 2 * MIB

    def test_r0_is_exactly_one(self):
        x = np.random.default_rng(17).normal(size=5000)
        assert an.autocorrelation(x, 20)[0] == 1.0

    def test_matches_direct_computation(self):
        x = np.random.default_rng(19).normal(size=3000)
        assert_allclose(an.autocorrelation(x, 50), autocorr_direct(x, 50),
                        atol=1e-16)

    def test_lags_spanning_several_chunks(self, monkeypatch):
        monkeypatch.setattr(an, "_ACF_CHUNK", 16)
        x = np.random.default_rng(31).normal(size=1001)
        assert_allclose(an.autocorrelation(x, 50), autocorr_direct(x, 50),
                        atol=1e-16)

    # With the transform patched to 16 points the chunks are max(16 - max_lag,
    # max_lag) samples long: at lag 10 a last chunk of 3 samples is shorter
    # than the lag; lag 0 has no pair across an edge; at lag N - 1 one chunk
    # of N - 1 samples meets a last chunk of one.
    @pytest.mark.parametrize("size, max_lag", [(8 * 10 + 3, 10), (1001, 0), (100, 99)],
                             ids=["short-last-chunk", "lag-0", "lag-N-1"])
    def test_pairs_across_chunk_edges(self, monkeypatch, size, max_lag):
        monkeypatch.setattr(an, "_ACF_CHUNK", 16)
        x = np.random.default_rng(size).normal(size=size)
        assert_allclose(an.autocorrelation(x, max_lag), autocorr_direct(x, max_lag),
                        atol=1e-16)

    def test_affine_invariance(self):
        x = np.random.default_rng(20).normal(size=10_000)
        base = an.autocorrelation(x, 30)
        assert_allclose(an.autocorrelation(-3.7 * x + 5.0, 30), base,
                        atol=1e-12)
        assert_allclose(an.autocorrelation(1e-6 * x - 12.0, 30), base,
                        atol=1e-12)

    def test_iid_series_has_small_lags(self):
        x = np.random.default_rng(23).normal(size=100_000)
        r = an.autocorrelation(x, 50)
        assert np.max(np.abs(r[1:])) < 4.0 / math.sqrt(x.size)

    def test_ar1_process_decays_geometrically(self):
        rho = 0.8
        rng = np.random.default_rng(29)
        n = 200_000
        x = np.empty(n)
        x[0] = rng.normal()
        eps = rng.normal(scale=math.sqrt(1 - rho * rho), size=n)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + eps[i]
        r = an.autocorrelation(x, 5)
        assert_allclose(r[1:], rho ** np.arange(1, 6), atol=0.02)

    def test_periodic_series(self):
        # biased (1/N) normalization: R(k) = (1 - k/N) * cos(2*pi*k/period)
        x = np.cos(np.linspace(0, 200 * np.pi, 10_000, endpoint=False))
        r = an.autocorrelation(x, 100)
        assert r[100] == pytest.approx(1.0 - 100 / 10_000, abs=1e-6)
        assert r[50] == pytest.approx(-(1.0 - 50 / 10_000), abs=1e-6)

    def test_validation(self):
        with pytest.raises(ParameterError):
            an.autocorrelation(np.ones((2, 2)), 1)
        with pytest.raises(ParameterError):
            an.autocorrelation(np.arange(10.0), 10)
        with pytest.raises(ParameterError):
            an.autocorrelation(np.arange(10.0), -1)
        with pytest.raises(DegenerateDataError):
            an.autocorrelation(np.ones(100), 3)


class TestQuantizedArcsineMinEntropy:
    def test_ten_bit_quantized_cosine_hits_the_oracle(self):
        # exact uniform phase grid -> arcsine-distributed cosine; the most
        # probable 10-bit code is the edge bin with the frozen mass
        theta = -np.pi + (np.arange(2_000_000) + 0.5) * (2 * np.pi / 2_000_000)
        v = np.cos(theta)
        from phaserng.reconstruction import quantize_uniform
        codes = quantize_uniform(v, 10, -1.0, 1.0)
        counts = np.bincount(codes, minlength=1024)
        h = an.min_entropy(counts)
        assert h == pytest.approx(ARCSINE_HMIN_1024, abs=0.01)
