import hashlib
import itertools
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from phaserng import optics, rng
from phaserng.errors import ParameterError
from phaserng.phasenoise import LaserParams, sample_phase_path, wrap_phase

TAU_C = 6e-9
T_D30 = 30e-9  # sigma^2 = 10 with tau_c = 6 ns
# delay length realizing T_d = 30 ns at fiber index 1.5
L30 = T_D30 * optics.delay_time.__globals__["SPEED_OF_LIGHT"] / 1.5


def ideal_laser(power=1e-3, intensity_sigma=0.0):
    return LaserParams(coherence_time=TAU_C, mean_power=power,
                       intensity_sigma=intensity_sigma)


def ifm(**kw):
    kw.setdefault("delay_length", L30)
    return optics.InterferometerParams(**kw)


def det(**kw):
    kw.setdefault("transimpedance", 16e3)
    return optics.DetectorParams(**kw)


def short_path(count=4096, seed=0, sample_period=5e-9):
    return sample_phase_path(ideal_laser(), T_D30, sample_period, count, seed)


class TestParamsValidation:
    def test_interferometer_ranges(self):
        with pytest.raises(ParameterError):
            ifm(delay_loss=0.0)
        with pytest.raises(ParameterError):
            ifm(delay_loss=1.5)
        with pytest.raises(ParameterError):
            ifm(bs_transmittance=0.0)
        with pytest.raises(ParameterError):
            ifm(bs_transmittance=1.0)
        with pytest.raises(ParameterError):
            ifm(drift_mode="sinusoidal")
        with pytest.raises(ParameterError):
            ifm(drift_step=-0.1)
        with pytest.raises(ParameterError):
            ifm(delay_length=-1.0)

    def test_phases_stored_wrapped(self):
        p = ifm(static_phase=3 * np.pi, drift_phase=2 * np.pi + 0.5)
        assert p.static_phase == -np.pi
        assert p.drift_phase == pytest.approx(0.5)

    def test_delay_time_property(self):
        assert ifm().delay_time == pytest.approx(T_D30, rel=1e-12)

    def test_detector_ranges(self):
        with pytest.raises(ParameterError):
            det(transimpedance=0.0)
        with pytest.raises(ParameterError):
            det(responsivity=-1.0)
        with pytest.raises(ParameterError):
            det(electrical_noise_sigma=-1e-3)
        with pytest.raises(ParameterError):
            det(adc_bits=0)
        with pytest.raises(ParameterError):
            det(adc_bits=17)
        with pytest.raises(ParameterError):
            det(adc_fullscale=0.0)
        with pytest.raises(ParameterError):
            det(response_time=0.0)

    def test_metadata_validation(self):
        with pytest.raises(ParameterError):
            optics.IQTrace(v_i=np.ones(4), v_q=np.ones(4), sample_rate=1.0,
                           adc_bits=17)
        with pytest.raises(ParameterError):
            optics.IQTrace(v_i=np.ones(4), v_q=np.ones(4), sample_rate=1.0,
                           fullscale=0.0)
        # encode_trace would write a full scale that decode_trace refuses
        with pytest.raises(ParameterError):
            optics.IQTrace(v_i=np.ones(4), v_q=np.ones(4), sample_rate=1.0,
                           fullscale=math.inf)

    def test_trace_validation(self):
        with pytest.raises(ParameterError):
            optics.IQTrace(v_i=np.ones(4), v_q=np.ones(3), sample_rate=1.0)
        with pytest.raises(ParameterError):
            optics.IQTrace(v_i=np.array([]), v_q=np.array([]), sample_rate=1.0)
        with pytest.raises(ParameterError):
            optics.IQTrace(v_i=np.array([np.nan]), v_q=np.array([0.0]),
                           sample_rate=1.0)
        with pytest.raises(ParameterError):
            optics.IQTrace(v_i=np.ones(4), v_q=np.ones(4), sample_rate=0.0)


class TestAmplitude:
    def test_formula(self):
        laser = ideal_laser(power=2e-3)
        geometry = ifm(delay_loss=0.8, bs_transmittance=0.3)
        expected = 16e3 * 1.0 * 2e-3 * math.sqrt(0.8 * 0.3 * 0.7)
        assert optics.bhd_amplitude(laser, geometry, det()) == pytest.approx(
            expected, rel=1e-15)

    def test_symmetric_in_transmittance(self):
        laser = ideal_laser()
        a = optics.bhd_amplitude(laser, ifm(bs_transmittance=0.3), det())
        b = optics.bhd_amplitude(laser, ifm(bs_transmittance=0.7), det())
        assert a == pytest.approx(b, rel=1e-15)

    def test_maximal_at_balanced_splitter(self):
        laser = ideal_laser()
        balanced = optics.bhd_amplitude(laser, ifm(bs_transmittance=0.5), det())
        for t in (0.1, 0.3, 0.45, 0.55, 0.9):
            assert optics.bhd_amplitude(laser, ifm(bs_transmittance=t),
                                        det()) < balanced


class TestIdealModel:
    def test_quadrature_identity(self):
        path = short_path()
        laser = ideal_laser()
        trace = optics.simulate_trace(path, laser, ifm(), det(), det())
        amp = optics.bhd_amplitude(laser, ifm(), det())
        assert_allclose(trace.v_i, amp * np.cos(path.increments), rtol=1e-12)
        assert_allclose(trace.v_q, amp * np.sin(path.increments), rtol=1e-12)
        assert trace.clamped_samples == 0
        assert trace.sample_rate == pytest.approx(1.0 / path.sample_period)

    def test_static_phase_offset(self):
        path = short_path()
        laser = ideal_laser()
        geometry = ifm(static_phase=0.6)
        trace = optics.simulate_trace(path, laser, geometry, det(), det())
        amp = optics.bhd_amplitude(laser, geometry, det())
        assert_allclose(trace.v_i, amp * np.cos(path.increments + 0.6),
                        rtol=1e-12, atol=1e-18)

    def test_pythagorean_envelope(self):
        path = short_path()
        laser = ideal_laser()
        trace = optics.simulate_trace(path, laser, ifm(), det(), det())
        amp = optics.bhd_amplitude(laser, ifm(), det())
        assert_allclose(np.hypot(trace.v_i, trace.v_q), amp, rtol=1e-12)

    def test_deterministic(self):
        path = short_path()
        args = (path, ideal_laser(), ifm(), det(), det())
        a = optics.simulate_trace(*args, seed=5)
        b = optics.simulate_trace(*args, seed=5)
        assert_array_equal(a.v_i, b.v_i)
        assert_array_equal(a.v_q, b.v_q)


class TestNoiseSwitches:
    def test_electrical_noise_is_additive_known_stream(self):
        path = short_path(seed=1)
        laser = ideal_laser()
        d = det(electrical_noise_sigma=5e-3)
        clean = optics.simulate_trace(path, laser, ifm(), d, d, seed=9)
        noisy = optics.simulate_trace(
            path, laser, ifm(), d, d,
            switches=optics.NoiseSwitches(electrical=True), seed=9)
        n = len(path)
        assert_allclose(noisy.v_i - clean.v_i,
                        5e-3 * rng.standard_normals(n, 9, stream=3), atol=1e-15)
        assert_allclose(noisy.v_q - clean.v_q,
                        5e-3 * rng.standard_normals(n, 9, stream=4), atol=1e-15)

    def test_toggling_electrical_does_not_change_intensity_draws(self):
        path = short_path(seed=2)
        laser = ideal_laser(intensity_sigma=2e-5)
        d = det(electrical_noise_sigma=5e-3)
        only_int = optics.simulate_trace(
            path, laser, ifm(), d, d,
            switches=optics.NoiseSwitches(intensity=True), seed=4)
        both = optics.simulate_trace(
            path, laser, ifm(), d, d,
            switches=optics.NoiseSwitches(intensity=True, electrical=True),
            seed=4)
        # subtracting the electrical draws recovers the intensity-only trace
        n = len(path)
        assert_allclose(both.v_i - 5e-3 * rng.standard_normals(n, 4, stream=3),
                        only_int.v_i, atol=1e-15)

    def test_intensity_noise_modulates_envelope(self):
        path = short_path(seed=3)
        laser = ideal_laser(intensity_sigma=2e-5)
        geometry = ifm()
        trace = optics.simulate_trace(
            path, laser, geometry, det(), det(),
            switches=optics.NoiseSwitches(intensity=True), seed=11)
        # re-derive the envelope from the documented streams
        n = len(path)
        k, t = geometry.delay_loss, geometry.bs_transmittance
        eps_s = rng.standard_normals(n, 11, stream=1) * (k * t * 2e-5)
        eps_lo = rng.standard_normals(n, 11, stream=2) * ((1 - t) * 2e-5)
        env = np.sqrt((k * t * 1e-3 + eps_s) * ((1 - t) * 1e-3 + eps_lo))
        assert_allclose(trace.v_i, 16e3 * env * np.cos(path.increments),
                        rtol=1e-12)
        assert trace.clamped_samples == 0

    def test_negative_power_draws_clamped_and_counted(self):
        path = short_path(count=1000, seed=5)
        laser = ideal_laser(power=1e-3, intensity_sigma=5e-3)  # sigma >> mean
        trace = optics.simulate_trace(
            path, laser, ifm(), det(), det(),
            switches=optics.NoiseSwitches(intensity=True), seed=13)
        assert trace.clamped_samples > 0
        assert np.all(np.isfinite(trace.v_i))

    def test_fixed_drift_equals_extra_static_phase(self):
        path = short_path(seed=6)
        laser = ideal_laser()
        drifted = optics.simulate_trace(
            path, laser, ifm(static_phase=0.3, drift_phase=0.8), det(), det(),
            switches=optics.NoiseSwitches(drift=True), seed=0)
        merged = optics.simulate_trace(
            path, laser, ifm(static_phase=1.1), det(), det(), seed=0)
        assert_allclose(drifted.v_i, merged.v_i, atol=1e-9)
        assert_allclose(drifted.v_q, merged.v_q, atol=1e-9)

    def test_drift_ignored_when_switch_off(self):
        path = short_path(seed=6)
        laser = ideal_laser()
        a = optics.simulate_trace(path, laser, ifm(drift_phase=0.8),
                                  det(), det(), seed=0)
        b = optics.simulate_trace(path, laser, ifm(), det(), det(), seed=0)
        assert_array_equal(a.v_i, b.v_i)

    def test_slow_walk_starts_at_drift_phase(self):
        path = short_path(count=20_000, seed=7)
        laser = ideal_laser()
        geometry = ifm(drift_phase=0.5, drift_mode="slow-walk", drift_step=1e-3)
        walk = optics.simulate_trace(
            path, laser, geometry, det(), det(),
            switches=optics.NoiseSwitches(drift=True), seed=21)
        fixed = optics.simulate_trace(
            path, laser, ifm(drift_phase=0.5), det(), det(),
            switches=optics.NoiseSwitches(drift=True), seed=21)
        assert walk.v_i[0] == pytest.approx(fixed.v_i[0], rel=1e-12)
        # ... but wanders away from the fixed-offset trace
        assert not np.allclose(walk.v_i, fixed.v_i)

    def test_mismatch_off_uses_i_channel_gain(self):
        path = short_path(seed=8)
        laser = ideal_laser()
        d_i = det(transimpedance=16e3)
        d_q = det(transimpedance=20e3)
        matched = optics.simulate_trace(path, laser, ifm(), d_i, d_q, seed=0)
        reference = optics.simulate_trace(path, laser, ifm(), d_i, d_i, seed=0)
        assert_array_equal(matched.v_q, reference.v_q)

    def test_mismatch_on_applies_q_gain(self):
        path = short_path(seed=8)
        laser = ideal_laser()
        d_i = det(transimpedance=16e3)
        d_q = det(transimpedance=20e3)
        trace = optics.simulate_trace(
            path, laser, ifm(), d_i, d_q,
            switches=optics.NoiseSwitches(mismatch=True), seed=0)
        reference = optics.simulate_trace(path, laser, ifm(), d_i, d_i, seed=0)
        assert_allclose(trace.v_q, reference.v_q * (20e3 / 16e3), rtol=1e-12)
        assert_array_equal(trace.v_i, reference.v_i)

    def test_bandwidth_limit_is_unity_gain_single_pole(self):
        # constant input must pass through unchanged in steady state
        laser = ideal_laser()
        path = short_path(count=2000, sample_period=1e-10)
        const = replace(path, increments=np.zeros(len(path)))
        d = det(response_time=625e-12)
        out = optics.simulate_trace(
            const, laser, ifm(), d, d,
            switches=optics.NoiseSwitches(bandwidth_limit=True))
        amp = optics.bhd_amplitude(laser, ifm(), d)
        assert out.v_i[-1] == pytest.approx(amp, rel=1e-6)
        # approach to steady state is monotone for a single pole
        assert np.all(np.diff(out.v_i[:50]) > 0)

    def test_bandwidth_limit_smooths_fast_variation(self):
        # a detector much slower than the signal's decorrelation time
        # averages the quadrature toward its mean
        path = short_path(count=5000, sample_period=1e-9, seed=9)
        laser = ideal_laser()
        d = det(response_time=100e-9)
        limited = optics.simulate_trace(
            path, laser, ifm(), d, d,
            switches=optics.NoiseSwitches(bandwidth_limit=True))
        full = optics.simulate_trace(path, laser, ifm(), d, d)
        assert limited.v_i.std() < 0.5 * full.v_i.std()


class TestTraceBytesPinned:
    """simulate_trace's output bytes over every NoiseSwitches combination.

    The digests were computed with the out-of-place implementation that
    preceded the in-place one; both must give the same bytes.  The
    bandwidth-limited ones were re-pinned when ``_single_pole`` replaced
    ``scipy.signal.lfilter``.  All were re-pinned at schema 16, when the
    normal streams moved from Philox to SFC64, and each was checked against
    the schema-15 code with only its normals' generator swapped.  The
    intensity noise is large enough that some power draws are clamped.  Since the filter's coefficient and
    tables come from ``math`` and Python floats, the digests hold with
    every dispatched numpy SIMD target on or off.
    """

    @pytest.mark.parametrize("drift_mode, digest", [
        ("fixed", "a76416011856eae5d2f03a9ac8b2de204f818a3b3b247d70d090439f37bd719d"),
        ("slow-walk", "77743cb5e5b8c67f3d7c606ae3451ed2afec5687f70d1229f320c97da4b8226c"),
    ], ids=["fixed", "slow-walk"])
    def test_all_switch_combinations(self, drift_mode, digest):
        laser = ideal_laser(power=1e-3, intensity_sigma=5e-4)
        path = sample_phase_path(laser, T_D30, 5e-9, 4096, 3)
        geometry = ifm(static_phase=0.3, drift_phase=0.7, drift_mode=drift_mode,
                       drift_step=1e-2)
        d_i = det(electrical_noise_sigma=0.05, response_time=2e-9)
        d_q = det(transimpedance=15e3, electrical_noise_sigma=0.04,
                  response_time=3e-9)
        sha = hashlib.sha256()
        clamped = 0
        for flags in itertools.product((False, True), repeat=5):
            trace = optics.simulate_trace(path, laser, geometry, d_i, d_q,
                                          optics.NoiseSwitches(*flags), seed=11)
            sha.update(trace.v_i.tobytes())
            sha.update(trace.v_q.tobytes())
            sha.update(trace.clamped_samples.to_bytes(8, "little"))
            clamped = max(clamped, trace.clamped_samples)
        assert clamped > 0
        assert sha.hexdigest() == digest

    @pytest.fixture(scope="class")
    def long_path(self):
        laser = ideal_laser(power=1e-3, intensity_sigma=5e-4)
        return laser, sample_phase_path(laser, T_D30, 5e-9, rng.BLOCK_SIZE + 4099, 3)

    # Computed with the whole-array implementation that preceded the
    # block-by-block lanes (the bandwidth-limited two with ``_single_pole``),
    # and re-pinned at schema 16 on the SFC64 normals.
    # 2^20 + 4099 samples cross one RNG block boundary, so a wrong
    # filter-state carry or a misaligned noise block changes the bytes.
    @pytest.mark.parametrize("flags, drift_mode, digest", [
        ({}, "fixed",
         "567031f183133bd896a513c1b528a6c4ca2b27e8f9d8aed2a309d6bedb160b33"),
        (dict(intensity=True, electrical=True, drift=True, mismatch=True,
              bandwidth_limit=True), "slow-walk",
         "591b3250be764fc060b1ba100481c5423578744a21822868420365db5933296d"),
        (dict(electrical=True, bandwidth_limit=True), "fixed",
         "8d7b863a85b53fd8d65483fcaeaadb68c68650fc3aa93c7f1de278805becf00e"),
        (dict(intensity=True, drift=True), "slow-walk",
         "18cdfd317a993c166919a16c86fb8d1817d8eda4733c920a45601c8c63f5cb7a"),
    ], ids=["all-off", "all-on", "bandwidth+electrical", "intensity+drift"])
    def test_across_a_block_boundary(self, long_path, flags, drift_mode, digest):
        laser, path = long_path
        geometry = ifm(static_phase=0.3, drift_phase=0.7, drift_mode=drift_mode,
                       drift_step=1e-2)
        d_i = det(electrical_noise_sigma=0.05, response_time=2e-9)
        d_q = det(transimpedance=15e3, electrical_noise_sigma=0.04,
                  response_time=3e-9)
        trace = optics.simulate_trace(path, laser, geometry, d_i, d_q,
                                      optics.NoiseSwitches(**flags), seed=11)
        sha = hashlib.sha256()
        sha.update(trace.v_i.tobytes())
        sha.update(trace.v_q.tobytes())
        sha.update(trace.clamped_samples.to_bytes(8, "little"))
        assert sha.hexdigest() == digest

    def test_head_per_block_equals_the_whole_array_expressions(self):
        # 2^20 + 10 samples: a full RNG block and a block of ten.  With the
        # mean power 4.5 sigma above zero, a few power draws of the full
        # block are clamped and none of the short block's, so the head
        # clamps one block and leaves the other as drawn.
        laser = ideal_laser(power=1e-3, intensity_sigma=1e-3 / 4.5)
        count = rng.BLOCK_SIZE + 10
        path = sample_phase_path(laser, T_D30, 5e-9, count, 3)
        geometry = ifm(static_phase=0.3, drift_phase=0.7, drift_mode="slow-walk",
                       drift_step=1e-2)
        d_i = det(electrical_noise_sigma=0.05, response_time=2e-9)
        d_q = det(transimpedance=15e3, electrical_noise_sigma=0.04,
                  response_time=3e-9)
        trace = optics.simulate_trace(path, laser, geometry, d_i, d_q,
                                      optics.NoiseSwitches(**TestLanes.ALL_ON), seed=11)

        def normals(stream):
            return rng.standard_normals(count, 11, stream)

        k, t, sigma = geometry.delay_loss, geometry.bs_transmittance, laser.intensity_sigma
        walk = np.cumsum(normals(rng.STREAM_DRIFT) * geometry.drift_step)
        phase = (walk + (geometry.drift_phase - walk[0]) + path.increments
                 + geometry.static_phase)
        p_s = (normals(rng.STREAM_INTENSITY_S) * (k * t * sigma)
               + k * t * laser.mean_power)
        p_lo = (normals(rng.STREAM_INTENSITY_LO) * ((1.0 - t) * sigma)
                + (1.0 - t) * laser.mean_power)
        clamps = (p_s < 0.0) | (p_lo < 0.0)
        envelope = np.sqrt(np.maximum(p_s, 0.0) * np.maximum(p_lo, 0.0))

        def channel(v, d, stream):
            alpha = -math.expm1(-path.sample_period / d.response_time)
            optics._single_pole(v, alpha, 0.0)    # one whole-array call
            return v + normals(stream) * d.electrical_noise_sigma

        v_i = channel(d_i.transimpedance * d_i.responsivity * envelope * np.cos(phase),
                      d_i, rng.STREAM_ELECTRICAL_I)
        v_q = channel(envelope * (d_q.transimpedance * d_q.responsivity) * np.sin(phase),
                      d_q, rng.STREAM_ELECTRICAL_Q)
        assert clamps[:rng.BLOCK_SIZE].any() and not clamps[rng.BLOCK_SIZE:].any()
        assert trace.clamped_samples == np.count_nonzero(clamps)
        assert trace.v_i.tobytes() == v_i.tobytes()
        assert trace.v_q.tobytes() == v_q.tobytes()

    def test_phase_path_is_not_modified(self):
        path = short_path(seed=12)
        before = path.increments.copy()
        for flags in itertools.product((False, True), repeat=5):
            optics.simulate_trace(path, ideal_laser(intensity_sigma=1e-4),
                                  ifm(drift_mode="slow-walk", drift_step=1e-2),
                                  det(electrical_noise_sigma=0.01), det(),
                                  optics.NoiseSwitches(*flags), seed=2)
        assert_array_equal(path.increments, before)


class TestSinglePole:
    """The detector filter against its recurrence, one sample at a time.

    alpha = 1 is the c = 0 case; alpha = 1e-5 sums the longest rows with
    the least decay, where the row sums round the most.
    """

    ALPHAS = [1e-5, 0.01, 0.5, -math.expm1(-4.0), 1.0]

    @staticmethod
    def recurrence(x, alpha, state):
        c = 1.0 - alpha
        out = []
        for value in x.tolist():
            state = alpha * value + c * state
            out.append(state)
        return np.array(out)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_the_recurrence(self, alpha):
        x = rng.standard_normals(3 * (1 << 14) + 77, 5) * 3.0 + 2.0
        want = self.recurrence(x, alpha, 0.7)
        got = x.copy()
        last = optics._single_pole(got, alpha, 0.7)
        assert last == got[-1]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_calls_split_at_block_edges_give_one_calls_bytes(self, alpha):
        x = rng.standard_normals(2 * rng.BLOCK_SIZE + 4099, 6)
        whole = x.copy()
        last = optics._single_pole(whole, alpha, -0.3)
        state = -0.3
        for lo in range(0, x.size, rng.BLOCK_SIZE):
            state = optics._single_pole(x[lo:lo + rng.BLOCK_SIZE], alpha, state)
        assert x.tobytes() == whole.tobytes()
        assert state == last


class TestLanes:
    """The I and Q chains run as two lanes; neither may outlive the call."""

    ALL_ON = dict(intensity=True, electrical=True, drift=True, mismatch=True,
                  bandwidth_limit=True)

    # The head's streams fail in rng.map_blocks's block fan-out, the
    # electrical ones in its lane fan-out: on two CPUs one lane fails while
    # the other may still run, on one CPU the I lane fails before Q starts.
    @pytest.mark.parametrize("failing", [
        rng.STREAM_DRIFT, rng.STREAM_INTENSITY_S, rng.STREAM_INTENSITY_LO,
        rng.STREAM_ELECTRICAL_I, rng.STREAM_ELECTRICAL_Q])
    def test_a_failing_lane_raises_and_leaves_no_thread(self, monkeypatch, failing):
        real = rng.standard_normals_range

        def draw(start, stop, seed, stream=0, **kwargs):
            if stream == failing:
                raise RuntimeError(f"stream {stream}")
            return real(start, stop, seed, stream, **kwargs)

        monkeypatch.setattr(rng, "standard_normals_range", draw)
        path = short_path(count=rng.BLOCK_SIZE + 10, seed=4)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"stream {failing}"):
            optics.simulate_trace(path, ideal_laser(intensity_sigma=1e-4),
                                  ifm(drift_mode="slow-walk", drift_step=1e-2),
                                  det(electrical_noise_sigma=0.01),
                                  det(electrical_noise_sigma=0.01),
                                  optics.NoiseSwitches(**self.ALL_ON), seed=2)
        assert threading.active_count() == before

    def test_peak_memory_stays_below_the_whole_array_chain(self):
        # The whole-array chain peaked at 91.6 MiB here; the lanes keep
        # about one block of temporaries each (76.3 MiB measured).
        laser = ideal_laser(power=1e-3, intensity_sigma=5e-4)
        path = sample_phase_path(laser, T_D30, 5e-9, 2_000_000, 3)
        tracemalloc.start()
        try:
            optics.simulate_trace(
                path, laser, ifm(drift_mode="slow-walk", drift_step=1e-2),
                det(electrical_noise_sigma=0.05, response_time=2e-9),
                det(transimpedance=15e3, electrical_noise_sigma=0.04,
                    response_time=3e-9),
                optics.NoiseSwitches(**self.ALL_ON), seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 91.6 * 2**20


class TestSymmetryAtUniformPhase:
    def test_iq_marginals_symmetric_and_interchangeable(self):
        # sigma^2 = 10: wrapped phase nearly uniform, so V_I and V_Q share
        # the symmetric arcsine law; compare histograms with a two-sample
        # chi^2 aggregate rather than per-bin thresholds
        path = short_path(count=200_000, seed=31)
        laser = ideal_laser()
        trace = optics.simulate_trace(path, laser, ifm(), det(), det())
        amp = optics.bhd_amplitude(laser, ifm(), det())
        edges = np.linspace(-amp, amp, 33)

        def chi2(x, y):
            cx, _ = np.histogram(x, bins=edges)
            cy, _ = np.histogram(y, bins=edges)
            with np.errstate(invalid="ignore"):
                terms = (cx - cy) ** 2 / (cx + cy)
            return float(np.nansum(terms))

        # 99.99% quantile of chi^2 with 32 dof is about 71
        assert chi2(trace.v_i, -trace.v_i) < 71.0
        assert chi2(trace.v_q, -trace.v_q) < 71.0
        assert chi2(trace.v_i, trace.v_q) < 71.0


class TestIntensityAsymmetryMechanism:
    def test_amplitude_noise_breaks_the_hard_envelope_bound(self):
        # without intensity noise |V| <= A exactly; amplitude modulation
        # spreads the heavily populated +A edge past that bound
        t_d = 0.6 * TAU_C / 2  # sigma^2 = 0.6
        laser = ideal_laser(power=1e-3, intensity_sigma=4e-5)
        path = sample_phase_path(laser, t_d, 5e-9, 200_000, seed=33)
        length = t_d * 299792458.0 / 1.5
        geometry = optics.InterferometerParams(delay_length=length)
        amp = optics.bhd_amplitude(laser, geometry, det())
        clean = optics.simulate_trace(path, laser, geometry, det(), det(),
                                      seed=3)
        noisy = optics.simulate_trace(
            path, laser, geometry, det(), det(),
            switches=optics.NoiseSwitches(intensity=True), seed=3)
        assert np.all(clean.v_i <= amp * (1 + 1e-12))
        beyond = int(np.count_nonzero(noisy.v_i > amp))
        assert beyond > 1000
        # the spread is concentrated on the populated (+A) side
        assert beyond > 10 * int(np.count_nonzero(noisy.v_i < -amp))


class TestPhaseErrorHelpers:
    def test_additional_phase_zero_when_matched(self):
        assert optics.additional_phase(1.0, 1.0, 1.0, 1.0) == 0.0
        assert optics.additional_phase(0.6, 0.4, 0.6, 0.4) == 0.0

    def test_additional_phase_sign_and_value(self):
        # measured I/Q amplitude ratio above design ratio -> positive
        val = optics.additional_phase(1.0, 1.0, 1.2, 1.0)
        assert val == pytest.approx(math.atan((1.2 - 1.0) / (1.0 + 1.2)))
        assert val > 0
        assert optics.additional_phase(1.0, 1.0, 1.0, 1.2) < 0

    def test_additional_phase_validation(self):
        with pytest.raises(ParameterError):
            optics.additional_phase(0.0, 1.0, 1.0, 1.0)

    def test_mismatch_phase_error_zeros(self):
        for phi in (0.0, np.pi / 2, -np.pi / 2, -np.pi):
            assert optics.mismatch_phase_error(phi, 1.3, 0.9) == pytest.approx(
                0.0, abs=1e-12)

    def test_mismatch_phase_error_matches_direct_reconstruction(self):
        phi = np.linspace(-np.pi, np.pi, 101, endpoint=False)
        err = optics.mismatch_phase_error(phi, 1.3, 0.9)
        direct = wrap_phase(np.arctan2(0.9 * np.sin(phi), 1.3 * np.cos(phi))
                            - phi)
        assert_allclose(err, direct, atol=1e-12)
        assert np.max(np.abs(err)) > 0.1  # 30% gain imbalance is visible


class TestAdcQuantize:
    def test_values_snap_to_mid_rise_levels(self):
        trace = optics.IQTrace(v_i=np.linspace(-1.2, 1.2, 1001),
                               v_q=np.linspace(1.2, -1.2, 1001),
                               sample_rate=1.0)
        d = det(adc_bits=4, adc_fullscale=1.0)
        out = optics.adc_quantize(trace, d, d)
        step = 2.0 / 16
        levels = -1.0 + (np.arange(16) + 0.5) * step
        assert set(np.round(out.v_i, 12)) <= set(np.round(levels, 12))

    def test_error_bounded_by_half_step_in_range(self):
        x = np.linspace(-0.999, 0.999, 2001)
        trace = optics.IQTrace(v_i=x, v_q=x, sample_rate=1.0)
        d = det(adc_bits=8, adc_fullscale=1.0)
        out = optics.adc_quantize(trace, d, d)
        assert np.max(np.abs(out.v_i - x)) <= (2.0 / 256) / 2 + 1e-12

    def test_saturates_outside_fullscale(self):
        trace = optics.IQTrace(v_i=np.array([-5.0, 5.0]),
                               v_q=np.array([0.0, 0.0]), sample_rate=1.0)
        d = det(adc_bits=4, adc_fullscale=1.0)
        out = optics.adc_quantize(trace, d, d)
        step = 2.0 / 16
        assert out.v_i[0] == pytest.approx(-1.0 + step / 2)
        assert out.v_i[1] == pytest.approx(1.0 - step / 2)

    def test_idempotent(self):
        x = np.linspace(-1.0, 1.0, 500)
        trace = optics.IQTrace(v_i=x, v_q=x, sample_rate=1.0)
        d = det(adc_bits=6, adc_fullscale=1.0)
        once = optics.adc_quantize(trace, d, d)
        twice = optics.adc_quantize(once, d, d)
        assert_array_equal(once.v_i, twice.v_i)

    def test_monotone(self):
        x = np.sort(np.random.default_rng(0).uniform(-2, 2, 500))
        trace = optics.IQTrace(v_i=x, v_q=x, sample_rate=1.0)
        d = det(adc_bits=5, adc_fullscale=1.0)
        out = optics.adc_quantize(trace, d, d)
        assert np.all(np.diff(out.v_i) >= 0)

    # [-F, F) is in range: -F snaps to the lowest level, F saturates.
    def test_counts_clipped_samples_per_channel(self):
        x = np.array([-5.0, -1.0, -0.5, 0.999, 1.0, 5.0])
        out = optics.adc_quantize(optics.IQTrace(v_i=x, v_q=0.5 * x, sample_rate=1.0),
                                  det(adc_bits=4), det(adc_bits=4))
        assert (out.adc_clipped_i, out.adc_clipped_q) == (3, 2)

    def test_channels_quantized_independently(self):
        trace = optics.IQTrace(v_i=np.array([0.3]), v_q=np.array([0.3]),
                               sample_rate=1.0)
        out = optics.adc_quantize(trace, det(adc_bits=3), det(adc_bits=10))
        assert out.v_i[0] != out.v_q[0]

    # Oracle: the ADC's own snapping formula, before it went through
    # quantize_uniform.  Power-of-two full scales must keep every byte, at
    # the level edges (and one ulp either side) and outside the range.
    @pytest.mark.parametrize("bits", range(1, 17))
    @pytest.mark.parametrize("fullscale", [0.25, 0.5, 1.0, 2.0])
    def test_matches_the_direct_snap_formula(self, fullscale, bits):
        levels = 1 << bits
        step = 2.0 * fullscale / levels
        edges = -fullscale + np.arange(levels + 1) * step
        x = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            fullscale * np.array([-1e3, -2.0, -1.5, -0.0, 0.0, 1.5, 2.0, 1e3]),
            np.random.default_rng(bits).uniform(-1.5 * fullscale, 1.5 * fullscale, 1000)])

        def snap(v):
            codes = np.clip(np.floor((v + fullscale) / step), 0, levels - 1)
            return -fullscale + (codes + 0.5) * step

        d = det(adc_bits=bits, adc_fullscale=fullscale)
        out = optics.adc_quantize(optics.IQTrace(v_i=x, v_q=-x, sample_rate=1.0), d, d)
        assert out.v_i.tobytes() == snap(x).tobytes()
        assert out.v_q.tobytes() == snap(-x).tobytes()


class TestBoxcarDecimate:
    def test_exact_window_means(self):
        v = np.arange(12, dtype=np.float64)
        trace = optics.IQTrace(v_i=v, v_q=2 * v, sample_rate=12.0)
        out = optics.boxcar_decimate(trace, 4)
        assert_array_equal(out.v_i, np.array([1.5, 5.5, 9.5]))
        assert_array_equal(out.v_q, 2 * np.array([1.5, 5.5, 9.5]))
        assert out.sample_rate == pytest.approx(3.0)

    def test_trailing_partial_window_dropped(self):
        v = np.arange(10, dtype=np.float64)
        trace = optics.IQTrace(v_i=v, v_q=v, sample_rate=10.0)
        out = optics.boxcar_decimate(trace, 4)
        assert len(out) == 2

    def test_factor_one_is_identity(self):
        v = np.arange(10, dtype=np.float64)
        trace = optics.IQTrace(v_i=v, v_q=v, sample_rate=10.0)
        assert optics.boxcar_decimate(trace, 1) is trace

    def test_bad_factor(self):
        v = np.arange(10, dtype=np.float64)
        trace = optics.IQTrace(v_i=v, v_q=v, sample_rate=10.0)
        with pytest.raises(ParameterError):
            optics.boxcar_decimate(trace, 0)
        with pytest.raises(ParameterError):
            optics.boxcar_decimate(trace, 11)

    @pytest.mark.parametrize("factor", range(1, 13))
    def test_bytes_equal_numpy_mean(self, factor):
        """The column-sum window mean keeps np.mean's bytes, signed zeros included."""
        gen = np.random.default_rng(factor)
        specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                             1e300, -1e300])
        for _ in range(40):
            size = int(gen.integers(1, 50)) * factor
            v = gen.standard_normal(size) * 10.0 ** gen.integers(-320, 300, size)
            picked = gen.random(size) < 0.5
            v[picked] = gen.choice(specials, int(picked.sum()))
            windows = v.reshape(-1, factor)
            want = windows.mean(axis=1).view(np.int64)
            means = optics._window_mean(windows, np.empty(len(windows)))
            assert_array_equal(means.view(np.int64), want)
            if factor > 1:
                trace = optics.IQTrace(v_i=v, v_q=-v, sample_rate=1.0)
                out = optics.boxcar_decimate(trace, factor)
                assert_array_equal(out.v_i.view(np.int64), want)
                assert_array_equal(out.v_q.view(np.int64),
                                   (-windows).mean(axis=1).view(np.int64))


class TestValidateTiming:
    """``validate_device``: the timing checks, and the level checks at the ADC."""

    @staticmethod
    def check(laser=None, interferometer=None, det_i=None, det_q=None,
              switches=optics.NoiseSwitches(), adc_quantize=False):
        return optics.validate_device(laser or ideal_laser(), interferometer or ifm(),
                                      det_i or det(), det_q or det(), switches,
                                      adc_quantize)

    def test_slow_detector_warns(self):
        for channel in ("det_i", "det_q"):     # the slower one is checked
            msgs = self.check(**{channel: det(response_time=10e-9)})
            assert msgs == ["warning: detector response time 1e-08 s is not below the "
                            "coherence time 6e-09 s; the detector will average out the "
                            "phase fluctuations"]

    def test_low_variance_warns(self):
        msgs = self.check(interferometer=ifm(delay_length=0.5))
        assert any(m.startswith("warning:") and "below 10" in m for m in msgs)

    def test_clean_setup_gives_no_messages(self):
        # 0.1 mW gives 0.8 V at 16 kV/A, inside the 1 V full scale.
        assert self.check(ideal_laser(power=1e-4), adc_quantize=True) == []

    # The check predicts each channel's amplitude from the gains that
    # simulate_trace applies: the peak |v| of an ideal trace is that amplitude.
    @pytest.mark.parametrize("mismatch,amplitude_q", [(False, 8.0), (True, 10.0)])
    def test_level_check_predicts_the_trace_amplitude(self, mismatch, amplitude_q):
        d_i = det(transimpedance=16e3, adc_fullscale=0.5)
        d_q = det(transimpedance=20e3, adc_fullscale=0.5)
        switches = optics.NoiseSwitches(mismatch=mismatch)
        msgs = self.check(det_i=d_i, det_q=d_q, switches=switches, adc_quantize=True)
        predicted = [float(m.split()[4]) for m in msgs]
        assert predicted == [8.0, amplitude_q]
        trace = optics.simulate_trace(short_path(), ideal_laser(), ifm(), d_i, d_q,
                                      switches=switches)
        peaks = [np.abs(trace.v_i).max(), np.abs(trace.v_q).max()]
        assert peaks == pytest.approx(predicted, rel=1e-4)
