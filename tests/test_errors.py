import math

import numpy as np
import pytest

from phaserng import config, optics, phasenoise, reconstruction, traceio
from phaserng.errors import ParameterError, check_scalar

ONES = np.ones(4)

# Guarded scalar -> (call that passes the value to its guard, 0 allowed).
GUARDED = {
    "mean_power": (
        lambda v: phasenoise.LaserParams(coherence_time=6e-9, mean_power=v), False),
    "intensity_sigma": (
        lambda v: phasenoise.LaserParams(coherence_time=6e-9, intensity_sigma=v), True),
    "drift_step": (
        lambda v: optics.InterferometerParams(delay_length=6.0, drift_step=v), True),
    "transimpedance": (lambda v: optics.DetectorParams(transimpedance=v), False),
    "responsivity": (lambda v: optics.DetectorParams(1.0, responsivity=v), False),
    "response_time": (lambda v: optics.DetectorParams(1.0, response_time=v), False),
    "adc_fullscale": (lambda v: optics.DetectorParams(1.0, adc_fullscale=v), False),
    "electrical_noise_sigma": (
        lambda v: optics.DetectorParams(1.0, electrical_noise_sigma=v), True),
    "DetectorParams.adc_bits": (lambda v: optics.DetectorParams(1.0, adc_bits=v), False),
    "IQTrace.sample_rate": (lambda v: optics.IQTrace(ONES, ONES, sample_rate=v), False),
    "IQTrace.fullscale": (lambda v: optics.IQTrace(ONES, ONES, 1.0, fullscale=v), False),
    "IQTrace.adc_bits": (lambda v: optics.IQTrace(ONES, ONES, 1.0, adc_bits=v), True),
    "additional_phase.i0": (lambda v: optics.additional_phase(v, 1, 1, 1), False),
    "additional_phase.q0": (lambda v: optics.additional_phase(1, v, 1, 1), False),
    "additional_phase.i0_meas": (lambda v: optics.additional_phase(1, 1, v, 1), False),
    "additional_phase.q0_meas": (lambda v: optics.additional_phase(1, 1, 1, v), False),
    "mismatch_phase_error.i0_meas": (lambda v: optics.mismatch_phase_error(0, v, 1), False),
    "mismatch_phase_error.q0_meas": (lambda v: optics.mismatch_phase_error(0, 1, v), False),
    "validate_timing.sample_rate": (lambda v: optics.validate_timing(
        phasenoise.LaserParams(coherence_time=6e-9),
        optics.InterferometerParams(delay_length=6.0),
        optics.DetectorParams(1.0), v), False),
    "delay_time.delay_length": (lambda v: phasenoise.delay_time(v, 1.5), True),
    "delay_time.fiber_index": (lambda v: phasenoise.delay_time(6.0, v), False),
    "phase_variance.coherence_time": (
        lambda v: phasenoise.phase_variance(6.0, 1.5, v), False),
    "wrapped_gaussian_pdf.sigma_sq": (
        lambda v: phasenoise.wrapped_gaussian_pdf(0.0, v), False),
    "sample_phase_path.delay_time": (lambda v: phasenoise.sample_phase_path(
        phasenoise.LaserParams(coherence_time=6e-9), v, 5e-9, 4, seed=0), False),
    "sample_phase_path.sample_period": (lambda v: phasenoise.sample_phase_path(
        phasenoise.LaserParams(coherence_time=6e-9), 30e-9, v, 4, seed=0), False),
    "SimulationParams.sample_rate": (
        lambda v: config.SimulationParams(sample_count=10, sample_rate=v, seed=0), False),
    "read_trace_csv.sample_rate": (lambda v: traceio.read_trace_csv("none.csv", v), False),
    "bits_per_symbol": (lambda v: reconstruction.SymbolStream(np.zeros(4, int), v), False),
    "quantize_uniform.n_bits": (
        lambda v: reconstruction.quantize_uniform(ONES, v, -1.0, 1.0), False),
    "phase_bits": (lambda v: config.AnalysisParams(phase_bits=v), False),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(GUARDED))
def test_every_guarded_scalar_refuses_bad_values(name, value):
    call, zero_ok = GUARDED[name]
    if value == 0.0 and zero_ok:
        assert call(value) is not None
    else:
        with pytest.raises(ParameterError, match=name.split(".")[-1]):
            call(value)


class TestCheckScalar:
    def test_returns_converted_value(self):
        assert check_scalar("x", np.float32(2.5)) == 2.5
        assert check_scalar("x", 0, zero_ok=True) == 0.0
        assert check_scalar("x", np.int64(16), bounds=(1, 16)) == 16
        assert type(check_scalar("x", np.int64(16), bounds=(1, 16))) is int

    def test_message_names_parameter_and_value(self):
        cases = [("width must be an integer in [1, 16], got 17", 17, {"bounds": (1, 16)}),
                 ("rate must be positive and finite, got inf", math.inf, {}),
                 ("step must be non-negative and finite, got -1", -1, {"zero_ok": True})]
        for message, value, kw in cases:
            with pytest.raises(ParameterError) as exc:
                check_scalar(message.split()[0], value, **kw)
            assert str(exc.value) == message
