import math
import os
import re

import numpy as np
import pytest

from phaserng import (analysis, cli, config, errors, extractor, optics, phasenoise,
                      reconstruction, rng, stattests, traceio)
from phaserng.errors import (DegenerateDataError, DependencyError, FormatError,
                             InsufficientEntropyError, InsufficientInputError,
                             ParameterError, PhaseRngError, SequenceLengthError,
                             check_choice, check_scalar)

ONES = np.ones(4)
BITS = rng.random_bits(1024, seed=0)
TRACE = optics.IQTrace(np.cos(np.arange(2000.0)), np.sin(np.arange(2000.0)), 1.0)
LASER = phasenoise.LaserParams(coherence_time=6e-9)

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
    "min_entropy_rate": (lambda v: config.ExtractionParams(min_entropy_rate=v), False),
    "delay_time.delay_length": (lambda v: phasenoise.delay_time(v, 1.5), True),
    "delay_time.fiber_index": (lambda v: phasenoise.delay_time(6.0, v), False),
    "phase_variance.coherence_time": (
        lambda v: phasenoise.phase_variance(6.0, 1.5, v), False),
    "ReferenceLaw.gaussian.variance": (lambda v: analysis.ReferenceLaw.gaussian(0.0, v), False),
    "ReferenceLaw.arcsine.amplitude": (lambda v: analysis.ReferenceLaw.arcsine(v), False),
    # The wrapped Gaussian phase density of variance sigma^2, now a ReferenceLaw.
    "wrapped_gaussian_pdf.sigma_sq": (
        lambda v: analysis.ReferenceLaw.wrapped_gaussian(v), False),
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


# Rows whose guard names the parameter other than the row's last segment.
MESSAGE_NAME = {"wrapped_gaussian_pdf.sigma_sq": "variance"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(GUARDED))
def test_every_guarded_scalar_refuses_bad_values(name, value):
    call, zero_ok = GUARDED[name]
    if value == 0.0 and zero_ok:
        assert call(value) is not None
    else:
        with pytest.raises(ParameterError, match=MESSAGE_NAME.get(name, name.split(".")[-1])):
            call(value)


# Integer parameter -> (call that passes the value to its guard, lowest valid value).
INTEGERS = {
    "AnalysisParams.max_lag": (lambda v: config.AnalysisParams(max_lag=v), 1),
    "input_bits": (lambda v: config.ExtractionParams(
        input_bits=v, min_entropy_rate=1.0, epsilon_exponent=0), 1),
    "epsilon_exponent": (lambda v: config.ExtractionParams(epsilon_exponent=v), 0),
    "sample_count": (lambda v: config.SimulationParams(v, 1e6, seed=0), 1),
    "oversample_factor": (
        lambda v: config.SimulationParams(10, 1e6, seed=0, oversample_factor=v), 1),
    "sequence_count": (lambda v: stattests.TestConfig(sequence_count=v), 1),
    "block_frequency_block": (lambda v: stattests.TestConfig(block_frequency_block=v), 2),
    "serial_pattern_bits": (lambda v: stattests.TestConfig(serial_pattern_bits=v), 2),
    "approx_entropy_pattern_bits": (
        lambda v: stattests.TestConfig(approx_entropy_pattern_bits=v), 1),
    "sequence_bits": (lambda v: stattests.TestConfig(sequence_bits=v), 1 << 18),
    "serial.pattern_bits": (lambda v: stattests.serial(BITS, v), 2),
    "approximate_entropy.pattern_bits": (
        lambda v: stattests.approximate_entropy(BITS, v), 0),
    "block_frequency.block": (lambda v: stattests.block_frequency(BITS, v), 1),
    "from_data.bins": (lambda v: analysis.Histogram.from_data(ONES, v), 1),
    "autocorrelation.max_lag": (lambda v: analysis.autocorrelation(np.arange(8.0), v), 0),
    "derive_params.n": (lambda v: extractor.derive_params(1.0, v, 0), 1),
    "derive_params.epsilon_exponent": (lambda v: extractor.derive_params(1.0, 4000, v), 0),
    "input_block_bits": (lambda v: extractor.ToeplitzSpec(v, 1, np.zeros(1)), 1),
    "output_block_bits": (lambda v: extractor.ToeplitzSpec(4, v, np.zeros(4)), 1),
    "bit_length": (lambda v: extractor.BitStream(b"", v), 0),
    "standard_normals_range.start": (lambda v: rng.standard_normals_range(v, 4, 0), 0),
    "standard_normals_range.stop": (lambda v: rng.standard_normals_range(2, v, 0), 2),
    "boxcar_decimate.factor": (lambda v: optics.boxcar_decimate(TRACE, v), 1),
    "sample_phase_path.count": (
        lambda v: phasenoise.sample_phase_path(LASER, 30e-9, 5e-9, v, seed=0), 1),
}


@pytest.mark.parametrize("case", ["nan", "inf", "-inf", "non-integral", "below"])
@pytest.mark.parametrize("name", sorted(INTEGERS))
def test_every_integer_guard_refuses_bad_values(name, case):
    call, lo = INTEGERS[name]
    value = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "non-integral": lo + 0.5, "below": lo - 1}[case]
    assert call(lo) is not None
    with pytest.raises(ParameterError, match=name.split(".")[-1]):
        call(value)


# Seeded call -> call that passes the seed to rng.check_seed.
SEEDED = {
    "sample_phase_path": lambda v: phasenoise.sample_phase_path(LASER, 30e-9, 5e-9, 4, v),
    "simulate_trace": lambda v: optics.simulate_trace(
        phasenoise.sample_phase_path(LASER, 30e-9, 5e-9, 4, 0), LASER,
        optics.InterferometerParams(6.0), optics.DetectorParams(16e3),
        optics.DetectorParams(16e3), seed=v),
}


# A seed past 64 bits is refused, not reduced to the seed it aliases.
@pytest.mark.parametrize("name", sorted(SEEDED))
def test_every_seeded_call_refuses_seeds_outside_64_bits(name):
    assert SEEDED[name](2**64 - 1) is not None
    with pytest.raises(ParameterError,
                       match=r"^seed must be an integer in \[0, 18446744073709551615\]"):
        SEEDED[name](2**64 + 3)


# Switch -> call that passes the value to check_flags.
FLAGS = {name: (lambda v, name=name: optics.NoiseSwitches(**{name: v}))
         for name in ("intensity", "electrical", "drift", "mismatch", "bandwidth_limit")}
FLAGS["adc_quantize"] = lambda v: config.SimulationParams(10, 1e6, seed=0, adc_quantize=v)


# A switch stores a real bool, whatever integer 0 or 1 spelled it.
@pytest.mark.parametrize("value", [2, -1, 0.0, 1.0, "on", None])
@pytest.mark.parametrize("name", sorted(FLAGS))
def test_every_switch_is_a_bool(name, value):
    for good in (True, False, 1, np.int64(0)):
        assert getattr(FLAGS[name](good), name) is bool(good)
    with pytest.raises(ParameterError, match=name):
        FLAGS[name](value)


# Option set -> call that passes the value to its guard.
CHOICES = {
    "normalize method": lambda v: config.AnalysisParams(normalize=v),
    "normalization method": lambda v: reconstruction.normalize_iq(TRACE, v),
    "derive_params.extraction mode": lambda v: extractor.derive_params(0.98, 4000, mode=v),
    "drift_mode": lambda v: optics.InterferometerParams(6.0, drift_mode=v),
}


@pytest.mark.parametrize("value", ["bogus", "", math.nan])
@pytest.mark.parametrize("name", sorted(CHOICES))
def test_every_option_set_refuses_unknown_names(name, value):
    message = f"unknown {name.split('.')[-1]} {value!r}"
    with pytest.raises(ParameterError) as exc:
        CHOICES[name](value)
    assert str(exc.value) == message


def test_defaults_are_members_of_their_option_sets():
    assert config.AnalysisParams().normalize in reconstruction.NORMALIZE_METHODS
    assert optics.InterferometerParams(6.0).drift_mode in optics.DRIFT_MODES


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

    def test_integers_are_whole_and_exact(self):
        assert check_scalar("x", 4.0, bounds=(1, None)) == 4
        assert check_scalar("x", 2**60 + 1, bounds=(0, None)) == 2**60 + 1
        for value in (2.5, "abc", None, math.nan):
            with pytest.raises(ParameterError, match="x must be an integer >= 1"):
                check_scalar("x", value, bounds=(1, None))

    def test_choice(self):
        assert check_choice("mode", "a", ("a", "b")) == "a"
        with pytest.raises(ParameterError, match="^unknown mode 'c'$"):
            check_choice("mode", "c", ("a", "b"))


# The README's exit-code table, class by class.
README_EXIT_CODES = {ParameterError: 2, DegenerateDataError: 2, SequenceLengthError: 2,
                     FormatError: 3, DependencyError: 4,
                     InsufficientEntropyError: 5, InsufficientInputError: 5}


def readme_exit_codes():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
                  encoding="utf-8").read()
    table = readme.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    return {int(code) for code in re.findall(r"^\| (\d+) \|", table, re.M)}


class TestExitCodes:
    def test_every_public_error_class_is_listed(self):
        public = {obj for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, PhaseRngError)
                  and obj is not PhaseRngError and not name.startswith("_")}
        assert public == set(README_EXIT_CODES)

    @pytest.mark.parametrize("cls", list(README_EXIT_CODES), ids=lambda c: c.__name__)
    def test_class_carries_its_readme_code(self, cls):
        assert cls.exit_code == README_EXIT_CODES[cls]
        assert cls.exit_code in readme_exit_codes()

    @pytest.mark.parametrize("cls", list(README_EXIT_CODES), ids=lambda c: c.__name__)
    def test_cli_exits_with_the_class_code(self, cls, monkeypatch, capsys):
        def fail(path):
            raise cls("boom")
        monkeypatch.setattr(cli, "load_config", fail)
        assert cli.main(["simulate", "-c", "x.ini", "-o", "out"]) == README_EXIT_CODES[cls]
        assert capsys.readouterr().err == "error: boom\n"

    def test_error_without_a_code_is_reraised(self, monkeypatch):
        def fail(path):
            raise PhaseRngError("no code")
        monkeypatch.setattr(cli, "load_config", fail)
        with pytest.raises(PhaseRngError, match="no code"):
            cli.main(["simulate", "-c", "x.ini", "-o", "out"])
