import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
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

    def test_moment_estimator_exact_on_uniform_grid(self):
        # mean of cos^2 over a full uniform grid is exactly 1/2
        out = rec.normalize_iq(self.make_arcsine_trace(amp=0.6),
                               method="arcsine-fit")
        assert out.amplitude_i == pytest.approx(0.6, rel=1e-9)
        assert out.amplitude_q == pytest.approx(0.6, rel=1e-9)

    def test_percentile_estimator_close(self):
        out = rec.normalize_iq(self.make_arcsine_trace(amp=0.6),
                               method="percentile")
        assert out.amplitude_i == pytest.approx(0.6, rel=0.01)

    def test_both_estimators_agree_on_clean_data(self):
        trace = self.make_arcsine_trace(amp=2.5)
        a = rec.normalize_iq(trace, method="percentile")
        b = rec.normalize_iq(trace, method="arcsine-fit")
        assert a.amplitude_i == pytest.approx(b.amplitude_i, rel=0.01)

    def test_dc_offset_removed(self):
        out = rec.normalize_iq(self.make_arcsine_trace(offset=3.0))
        assert abs(out.trace.v_i.mean()) < 1e-9
        assert out.amplitude_i == pytest.approx(0.6, rel=0.01)

    def test_normalized_channels_have_unit_amplitude(self):
        out = rec.normalize_iq(self.make_arcsine_trace(amp=7.7),
                               method="arcsine-fit")
        assert np.sqrt(2 * np.mean(out.trace.v_i ** 2)) == pytest.approx(
            1.0, rel=1e-9)

    def test_idempotent_up_to_tolerance(self):
        once = rec.normalize_iq(self.make_arcsine_trace(), method="arcsine-fit")
        twice = rec.normalize_iq(once.trace, method="arcsine-fit")
        assert twice.amplitude_i == pytest.approx(1.0, rel=1e-9)

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
        with pytest.raises(ParameterError):
            rec.PhaseSeries(phases=np.array([np.pi]))
        with pytest.raises(ParameterError):
            rec.PhaseSeries(phases=np.array([-np.pi - 1e-9]))
        with pytest.raises(ParameterError):
            rec.PhaseSeries(phases=np.array([np.nan]))
        with pytest.raises(ParameterError):
            rec.PhaseSeries(phases=np.array([]))

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
        normalized = rec.normalize_iq(trace, method="arcsine-fit")
        series = rec.reconstruct_phase(normalized.trace)
        expected = wrap_phase(path.increments)
        err = wrap_phase(series.phases - expected)
        # DC removal perturbs the phase by about |mean|/A ~ 1e-2 at most
        assert np.max(np.abs(err)) < 0.05
        assert np.mean(np.abs(err)) < 0.01
