import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from phaserng import optics, reconstruction as rec
from phaserng.errors import DegenerateDataError, ParameterError
from phaserng.phasenoise import LaserParams, sample_phase_path, wrap_phase


def trace_from_phases(phases, amp_i=1.0, amp_q=None, rate=1.0):
    phases = np.asarray(phases, dtype=np.float64)
    amp_q = amp_i if amp_q is None else amp_q
    return optics.IQTrace(v_i=amp_i * np.cos(phases),
                          v_q=amp_q * np.sin(phases), sample_rate=rate)


class TestReconstructPhase:
    def test_identity_on_clean_quadratures(self):
        theta = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        series = rec.reconstruct_phase(trace_from_phases(theta))
        assert_allclose(series.phases, theta, atol=1e-12)

    def test_amplitude_invariance(self):
        theta = np.linspace(-np.pi, np.pi, 512, endpoint=False)
        a = rec.reconstruct_phase(trace_from_phases(theta, amp_i=1.0))
        b = rec.reconstruct_phase(trace_from_phases(theta, amp_i=123.4))
        assert_allclose(a.phases, b.phases, atol=1e-12)

    def test_output_range(self):
        v = np.random.default_rng(1).normal(size=(2, 10_000))
        series = rec.reconstruct_phase(
            optics.IQTrace(v_i=v[0], v_q=v[1], sample_rate=1.0))
        assert np.all(series.phases >= -np.pi)
        assert np.all(series.phases < np.pi)

    def test_plus_pi_folds_to_minus_pi(self):
        # (-1, -0.0) has atan2 = -pi, (-1, +0.0) has atan2 = +pi
        trace = optics.IQTrace(v_i=np.array([-1.0, -1.0]),
                               v_q=np.array([0.0, -0.0]), sample_rate=1.0)
        series = rec.reconstruct_phase(trace)
        assert_array_equal(series.phases, [-np.pi, -np.pi])

    def test_zero_vectors_counted_and_mapped_to_zero(self):
        trace = optics.IQTrace(v_i=np.array([0.0, 1.0, 0.0]),
                               v_q=np.array([0.0, 0.0, 0.0]), sample_rate=1.0)
        series = rec.reconstruct_phase(trace)
        assert series.zero_vector_count == 2
        assert series.phases[0] == 0.0

    # arctan2 takes (-0.0, -0.0) to -pi and (-0.0, +0.0) to +pi.
    def test_signed_zero_vectors_map_to_zero(self):
        trace = optics.IQTrace(v_i=np.array([-0.0, -0.0, 0.0, 0.0]),
                               v_q=np.array([-0.0, 0.0, -0.0, 0.0]), sample_rate=1.0)
        series = rec.reconstruct_phase(trace)
        assert series.zero_vector_count == 4
        assert_array_equal(series.phases, 0.0)
        assert_array_equal(rec.quantize_phase(series, 10).symbols, 512)

    def test_quadrant_signs(self):
        trace = optics.IQTrace(v_i=np.array([1.0, -1.0, -1.0, 1.0]),
                               v_q=np.array([1.0, 1.0, -1.0, -1.0]),
                               sample_rate=1.0)
        series = rec.reconstruct_phase(trace)
        assert_allclose(series.phases,
                        [np.pi / 4, 3 * np.pi / 4, -3 * np.pi / 4, -np.pi / 4])


class TestNormalizeIQ:
    def make_arcsine_trace(self, amp=0.6, n=50_000, offset=0.0):
        theta = np.linspace(-np.pi, np.pi, n, endpoint=False)
        return optics.IQTrace(v_i=amp * np.cos(theta) + offset,
                              v_q=amp * np.sin(theta) + offset,
                              sample_rate=1.0)

    def test_percentile_estimator_close(self):
        out = rec.normalize_iq(self.make_arcsine_trace(amp=0.6),
                               method="percentile")
        assert out.amplitude_i == pytest.approx(0.6, rel=0.01)

    def test_dc_offset_removed(self):
        out = rec.normalize_iq(self.make_arcsine_trace(offset=3.0))
        assert abs(out.trace.v_i.mean()) < 1e-9
        assert out.amplitude_i == pytest.approx(0.6, rel=0.01)

    def test_normalized_channels_have_unit_amplitude(self):
        out = rec.normalize_iq(self.make_arcsine_trace(amp=7.7))
        for v in (out.trace.v_i, out.trace.v_q):
            lo, hi = np.quantile(v, (0.001, 0.999))
            assert 0.5 * (hi - lo) == pytest.approx(1.0, rel=1e-12)
            # The 0.1% tails of an arcsine law of amplitude A start within
            # A * (1 - cos(0.001 * pi)) ~ 5e-6 * A of its edges.
            assert np.sqrt(2 * np.mean(v ** 2)) == pytest.approx(1.0, rel=1e-5)

    def test_idempotent_up_to_tolerance(self):
        once = rec.normalize_iq(self.make_arcsine_trace())
        twice = rec.normalize_iq(once.trace)
        assert twice.amplitude_i == pytest.approx(1.0, rel=1e-12)
        assert twice.amplitude_q == pytest.approx(1.0, rel=1e-12)
        assert_allclose(twice.trace.v_i, once.trace.v_i, rtol=0.0, atol=1e-12)

    def test_rejects_short_traces(self):
        theta = np.linspace(-np.pi, np.pi, 999, endpoint=False)
        with pytest.raises(ParameterError, match="1000"):
            rec.normalize_iq(trace_from_phases(theta))

    def test_rejects_flat_channel(self):
        trace = optics.IQTrace(v_i=np.ones(2000), v_q=np.linspace(-1, 1, 2000),
                               sample_rate=1.0)
        with pytest.raises(DegenerateDataError):
            rec.normalize_iq(trace)

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            rec.normalize_iq(self.make_arcsine_trace(), method="minmax")


def assert_tail_quantiles_exact(values):
    expected = np.quantile(values, (0.001, 0.999))
    assert rec._tail_quantiles(values).tobytes() == expected.tobytes()


class TestTailQuantiles:
    """The percentile estimator's quantiles equal np.quantile's, bit for bit."""

    @given(hnp.arrays(np.float64, 1000,
                      elements=hst.floats(-1e6, 1e6, allow_subnormal=False)))
    @settings(max_examples=100, deadline=None)
    def test_any_1000_values(self, values):
        assert_tail_quantiles_exact(values)

    @given(hst.integers(1000, 60_000), hst.integers(0, 2**32 - 1), hst.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_ties_at_every_cut(self, n, seed, levels):
        values = np.random.default_rng(seed).integers(-levels, levels + 1, n)
        assert_tail_quantiles_exact(values.astype(np.float64))

    @given(hst.integers(1000, 60_000), hst.integers(0, 2**32 - 1),
           hst.floats(0.0, 1.0), hst.floats(0.0, 0.01))
    @settings(max_examples=60, deadline=None)
    def test_plateau_straddling_a_cut(self, n, seed, start, width):
        # Runs of equal values covering the ranks either side of each cut.
        values = np.sort(np.random.default_rng(seed).normal(size=n))
        k = int(0.001 * (n - 1))
        lo, hi = int(start * k), k + 3 + int(width * n)
        values[lo:hi] = values[lo]
        values[n - hi:n - lo] = values[n - hi]
        assert_tail_quantiles_exact(np.random.default_rng(seed).permutation(values))

    @given(hst.integers(1000, 60_000), hst.integers(0, 2**32 - 1), hst.floats(1.0, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_heavy_tails(self, n, seed, scale):
        # Cauchy draws clipped to 1e6, so hi - lo cannot overflow.
        gen = np.random.default_rng(seed)
        values = np.clip(gen.standard_cauchy(n), -1e6, 1e6) * scale
        assert_tail_quantiles_exact(values)

    def test_half_weight_uses_numpys_upper_formula(self):
        # At n = 1501 both cuts fall halfway between two order statistics,
        # where numpy's lerp switches from a + t*(b - a) to b - (1 - t)*(b - a).
        gen = np.random.default_rng(4)
        for _ in range(200):
            assert_tail_quantiles_exact(gen.standard_cauchy(1501))

    @given(hst.integers(4, 30), hst.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_unrepresentative_subsample_falls_back(self, stride, seed):
        # Every strided-subsample point is an outlier, so each bracket sits
        # beyond the cut and holds too few values: np.quantile must run.
        n = rec._BRACKET_SAMPLES * stride
        values = np.random.default_rng(seed).normal(size=n)
        values[::stride] *= 1e3
        calls = []
        original = np.quantile

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        np.quantile = spy
        try:
            assert_tail_quantiles_exact(values)
        finally:
            np.quantile = original
        assert len(calls) == 2   # the fallback and the reference

    @given(hst.integers(1000, 20_000), hst.floats(-1e6, 1e6))
    @settings(max_examples=30, deadline=None)
    def test_constant_channel_is_degenerate(self, n, value):
        values = np.full(n, value)
        assert_tail_quantiles_exact(values)
        trace = optics.IQTrace(v_i=values, v_q=np.linspace(-1, 1, n), sample_rate=1.0)
        with pytest.raises(DegenerateDataError):
            rec.normalize_iq(trace)

    def test_estimator_is_half_the_quantile_spread(self):
        values = np.random.default_rng(3).normal(size=100_000)
        trace = optics.IQTrace(v_i=values, v_q=-values, sample_rate=1.0)
        lo, hi = np.quantile(values - values.mean(), (0.001, 0.999))
        assert rec.normalize_iq(trace).amplitude_i == float(0.5 * (hi - lo))


class TestQuantizeUniform:
    def test_bin_assignment(self):
        codes = rec.quantize_uniform([-1.0, -0.6, -0.1, 0.0, 0.4, 0.99],
                                     2, -1.0, 1.0)
        assert_array_equal(codes, [0, 0, 1, 2, 2, 3])

    def test_saturation(self):
        codes = rec.quantize_uniform([-5.0, 5.0, 1.0], 3, -1.0, 1.0)
        assert_array_equal(codes, [0, 7, 7])

    def test_totality_and_range(self):
        rng = np.random.default_rng(3)
        values = rng.normal(scale=10, size=10_000)
        codes = rec.quantize_uniform(values, 10, -1.0, 1.0)
        assert codes.min() >= 0 and codes.max() <= 1023

    def test_monotone(self):
        x = np.sort(np.random.default_rng(4).uniform(-2, 2, 5_000))
        codes = rec.quantize_uniform(x, 6, -1.0, 1.0)
        assert np.all(np.diff(codes.astype(np.int32)) >= 0)

    def test_uniform_input_fills_bins_equally(self):
        # exact grid: every 8-bit bin receives the same count
        x = (np.arange(256 * 4) + 0.5) / (256 * 4) * 2.0 - 1.0
        codes = rec.quantize_uniform(x, 8, -1.0, 1.0)
        assert_array_equal(np.bincount(codes, minlength=256), 4)

    @given(hst.floats(min_value=-1e6, max_value=1e6),
           hst.integers(min_value=1, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_every_finite_value_maps_to_a_symbol(self, value, n_bits):
        code = rec.quantize_uniform([value], n_bits, -1.0, 1.0)[0]
        assert 0 <= code < (1 << n_bits)

    # Oracle: the out-of-place floor, clip and cast that the in-place passes
    # replaced, at every level edge and one ulp either side of it, at +-0.0
    # and far outside the range.
    @pytest.mark.parametrize("n_bits", range(1, 17))
    @pytest.mark.parametrize("lo, hi", [(-np.pi, np.pi), (-1.0, 1.0)])
    def test_matches_the_out_of_place_quantizer(self, lo, hi, n_bits):
        levels = 1 << n_bits
        edges = lo + np.arange(levels + 1) * ((hi - lo) / levels)
        x = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [-0.0, 0.0, -1e300, -1e6, -2.0 * hi, 2.0 * hi, 1e6, 1e300],
            np.random.default_rng(n_bits).uniform(1.5 * lo, 1.5 * hi, 1000)])
        direct = np.clip(np.floor((x - lo) * (levels / (hi - lo))), 0, levels - 1)
        assert rec.quantize_uniform(x, n_bits, lo, hi).tobytes() == (
            direct.astype(np.uint16).tobytes())

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            rec.quantize_uniform([0.0], 0, -1.0, 1.0)
        with pytest.raises(ParameterError):
            rec.quantize_uniform([0.0], 17, -1.0, 1.0)
        with pytest.raises(ParameterError):
            rec.quantize_uniform([0.0], 8, 1.0, -1.0)
        with pytest.raises(ParameterError):
            rec.quantize_uniform([0.0], 8, 0.0, float("inf"))


class TestQuantizePhase:
    def grid_series(self, n=8192):
        phases = np.linspace(-np.pi, np.pi, n, endpoint=False)
        return rec.PhaseSeries(phases=phases)

    def test_symbol_range_and_dtype(self):
        stream = rec.quantize_phase(self.grid_series(), 10)
        assert stream.symbols.dtype == np.uint16
        assert stream.bits_per_symbol == 10
        assert stream.symbols.min() == 0
        assert stream.symbols.max() == 1023

    def test_edges(self):
        series = rec.PhaseSeries(
            phases=np.array([-np.pi, -np.pi + 1e-9, np.pi - 1e-9]))
        stream = rec.quantize_phase(series, 10)
        assert stream.symbols[0] == 0
        assert stream.symbols[1] == 0
        assert stream.symbols[2] == 1023

    def test_matches_generic_quantizer(self):
        series = self.grid_series()
        stream = rec.quantize_phase(series, 8)
        assert_array_equal(stream.symbols,
                           rec.quantize_uniform(series.phases, 8,
                                                -np.pi, np.pi))

    def test_uniform_grid_fills_all_symbols_equally(self):
        # bin-center grid: no point sits on a bin edge
        n = 1024 * 4
        phases = -np.pi + (np.arange(n) + 0.5) * (2 * np.pi / n)
        stream = rec.quantize_phase(rec.PhaseSeries(phases=phases), 10)
        assert_array_equal(np.bincount(stream.symbols, minlength=1024), 4)


class TestValidation:
    def test_phase_series_range_checked(self):
        for phases in ([np.pi], [-np.pi - 1e-9], [np.nan], [0.0, np.nan, 1.0],
                       [np.inf], [-np.inf], []):
            with pytest.raises(ParameterError, match="phases must be"):
                rec.PhaseSeries(phases=np.array(phases))

    def test_phase_series_keeps_the_edges_of_its_range(self):
        phases = np.array([-np.pi, np.nextafter(np.pi, 0.0)])
        assert_array_equal(rec.PhaseSeries(phases=phases).phases, phases)

    def test_symbol_stream_keeps_a_uint16_array_without_copying(self):
        symbols = np.array([0, 5, 1023], dtype=np.uint16)
        assert rec.SymbolStream(symbols, 10).symbols is symbols
        widened = rec.SymbolStream(symbols.astype(np.int64), 10).symbols
        assert widened.dtype == np.uint16
        assert_array_equal(widened, symbols)

    def test_symbol_stream_checked(self):
        with pytest.raises(ParameterError):
            rec.SymbolStream(symbols=np.array([1024]), bits_per_symbol=10)
        with pytest.raises(ParameterError):
            rec.SymbolStream(symbols=np.array([-1]), bits_per_symbol=10)
        with pytest.raises(ParameterError):
            rec.SymbolStream(symbols=np.array([0.5]), bits_per_symbol=10)
        with pytest.raises(ParameterError):
            rec.SymbolStream(symbols=np.array([0]), bits_per_symbol=0)


class TestEndToEnd:
    def test_simulated_trace_reconstructs_the_wrapped_path(self):
        laser = LaserParams(coherence_time=6e-9, mean_power=1e-3)
        path = sample_phase_path(laser, 30e-9, 5e-9, 50_000, seed=12)
        geometry = optics.InterferometerParams(
            delay_length=30e-9 * 299792458.0 / 1.5)
        det = optics.DetectorParams(transimpedance=16e3)
        trace = optics.simulate_trace(path, laser, geometry, det, det)
        normalized = rec.normalize_iq(trace)
        series = rec.reconstruct_phase(normalized.trace)
        expected = wrap_phase(path.increments)
        err = wrap_phase(series.phases - expected)
        # DC removal perturbs the phase by about |mean|/A ~ 1e-2 at most
        assert np.max(np.abs(err)) < 0.05
        assert np.mean(np.abs(err)) < 0.01
