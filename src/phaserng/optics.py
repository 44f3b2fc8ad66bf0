"""Interferometer and balanced-detector measurement chain.

Maps a sequence of delay-line phase increments through the unbalanced
interferometer, 90-degree hybrid, and two balanced homodyne detectors into
baseband I/Q voltages:

    V_I(t) = Z1*R1 * sqrt(P_S(t)*P_LO(t)) * cos(theta_0 + phi_0(t) + dxi(t)) + w1(t)
    V_Q(t) = Z2*R2 * sqrt(P_S(t)*P_LO(t)) * sin(theta_0 + phi_0(t) + dxi(t)) + w2(t)

where P_S = K*T*P_0 is the delayed signal-arm power (K the delay-line
transmission, T the input splitter transmittance), P_LO = (1-T)*P_0 the
local-oscillator power, theta_0 the static phase of the delay line, and
phi_0 the slow classical drift of the interferometer.

Each imperfection is individually switchable: laser intensity
fluctuations, additive electrical noise, classical phase drift, detector
gain mismatch, and a single-pole detector-bandwidth limit.  With every
switch off the trace is the ideal noiseless model.

The bandwidth limit is ``scipy.signal.lfilter``.  ``scipy.signal`` takes
about a second to import and nothing else uses it, so it is imported only
when a ``NoiseSwitches`` turns ``bandwidth_limit`` on.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .errors import ParameterError, check_choice, check_scalar
from .phasenoise import LaserParams, PhasePath, delay_time, phase_variance, wrap_phase

#: How the classical phase phi_0 evolves when the drift switch is on.
DRIFT_MODES = ("fixed", "slow-walk")

# Per-purpose RNG stream indices, so one trace seed yields independent
# noise draws that stay stable when switches are toggled.
_STREAM_INTENSITY_S = 1
_STREAM_INTENSITY_LO = 2
_STREAM_ELECTRICAL_I = 3
_STREAM_ELECTRICAL_Q = 4
_STREAM_DRIFT = 5


@dataclass(frozen=True)
class InterferometerParams:
    """Unbalanced-interferometer geometry and phase offsets.

    ``drift_mode`` selects how the classical phase phi_0 evolves when the
    drift switch is on: "fixed" holds ``drift_phase`` constant; "slow-walk"
    random-walks from it with per-sample step ``drift_step`` (rad).
    """

    delay_length: float               # m
    fiber_index: float = 1.5
    delay_loss: float = 1.0           # K, power transmission of the delay arm
    bs_transmittance: float = 0.5     # T, input beamsplitter
    static_phase: float = 0.0         # rad, theta_0 from the delay line
    drift_phase: float = 0.0          # rad, phi_0 starting value
    drift_mode: str = "fixed"
    drift_step: float = 0.0           # rad per sample, slow-walk only

    def __post_init__(self):
        if not (0.0 < float(self.delay_loss) <= 1.0):
            raise ParameterError(f"delay_loss must be in (0, 1], got {self.delay_loss}")
        if not (0.0 < float(self.bs_transmittance) < 1.0):
            raise ParameterError(
                f"bs_transmittance must be in (0, 1), got {self.bs_transmittance}")
        check_choice("drift_mode", self.drift_mode, DRIFT_MODES)
        check_scalar("drift_step", self.drift_step, zero_ok=True)
        object.__setattr__(self, "static_phase", wrap_phase(self.static_phase))
        object.__setattr__(self, "drift_phase", wrap_phase(self.drift_phase))
        # Range checks for delay_length/fiber_index happen here.
        delay_time(self.delay_length, self.fiber_index)

    @property
    def delay_time(self) -> float:
        return delay_time(self.delay_length, self.fiber_index)


@dataclass(frozen=True)
class DetectorParams:
    """One balanced-homodyne channel: gain, noise, bandwidth, and ADC."""

    transimpedance: float             # V/A
    responsivity: float = 1.0         # A/W
    electrical_noise_sigma: float = 0.0  # V
    response_time: float = 625e-12    # s
    adc_bits: int = 10
    adc_fullscale: float = 1.0        # V, half-range: ADC spans [-F, +F]

    def __post_init__(self):
        for name in ("transimpedance", "responsivity", "response_time", "adc_fullscale"):
            check_scalar(name, getattr(self, name))
        check_scalar("electrical_noise_sigma", self.electrical_noise_sigma, zero_ok=True)
        check_scalar("adc_bits", self.adc_bits, bounds=(1, 16))


@dataclass(frozen=True)
class NoiseSwitches:
    """Independent enables for each modeled imperfection."""

    intensity: bool = False
    electrical: bool = False
    drift: bool = False
    mismatch: bool = False
    bandwidth_limit: bool = False

    def __post_init__(self):
        if self.bandwidth_limit:
            # Pay scipy.signal's import (about 1 s) when the device is configured,
            # not inside the first simulate_trace, which imports lfilter itself.
            import scipy.signal  # noqa: F401


@dataclass(frozen=True)
class IQTrace:
    """Time-aligned dual-channel voltage samples."""

    v_i: np.ndarray = field(repr=False)
    v_q: np.ndarray = field(repr=False)
    sample_rate: float
    clamped_samples: int = 0          # power draws clamped to zero during simulation
    adc_bits: int = 0                 # 0 = not quantized / unknown
    fullscale: float = 1.0            # V, ADC half-range
    rejected_rows: int = 0            # non-finite rows dropped when read

    def __post_init__(self):
        vi = np.asarray(self.v_i, dtype=np.float64)
        vq = np.asarray(self.v_q, dtype=np.float64)
        if vi.ndim != 1 or vq.ndim != 1 or vi.size == 0 or vi.size != vq.size:
            raise ParameterError("v_i and v_q must be non-empty 1-D arrays of equal length")
        if not (np.all(np.isfinite(vi)) and np.all(np.isfinite(vq))):
            raise ParameterError("trace samples must be finite")
        check_scalar("sample_rate", self.sample_rate)
        check_scalar("adc_bits", self.adc_bits, bounds=(0, 16))
        check_scalar("fullscale", self.fullscale)
        object.__setattr__(self, "v_i", vi)
        object.__setattr__(self, "v_q", vq)

    def __len__(self) -> int:
        return self.v_i.size


def bhd_amplitude(laser: LaserParams, ifm: InterferometerParams,
                  det: DetectorParams) -> float:
    """Nominal interference amplitude Z*R*P_0*sqrt(K*T*(1-T)) in volts.

    Maximized by a 50:50 input splitter; symmetric in T vs 1-T.
    """
    k = float(ifm.delay_loss)
    t = float(ifm.bs_transmittance)
    return (det.transimpedance * det.responsivity * laser.mean_power
            * np.sqrt(k * t * (1.0 - t)))


def additional_phase(i0: float, q0: float, i0_meas: float, q0_meas: float) -> float:
    """Systematic phase offset caused by unequal channel amplitudes.

    ``i0``/``q0`` are the design amplitudes, ``i0_meas``/``q0_meas`` the
    measured ones.  Returns arctan[(I0'*Q0 - I0*Q0') / (Q0*Q0' + I0'*I0)],
    positive exactly when I0'/Q0' > I0/Q0.
    """
    vals = {"i0": i0, "q0": q0, "i0_meas": i0_meas, "q0_meas": q0_meas}
    for name, value in vals.items():
        check_scalar(name, value)
    num = i0_meas * q0 - i0 * q0_meas
    den = q0 * q0_meas + i0_meas * i0
    return float(np.arctan(num / den))


def mismatch_phase_error(phi, i0_meas: float, q0_meas: float):
    """Exact reconstruction error at true phase ``phi`` for unequal gains.

    With channel amplitudes I0', Q0' the measured phase is
    atan2(Q0'*sin(phi), I0'*cos(phi)); returns that minus ``phi``, wrapped.
    Zero exactly at phi in {0, +-pi/2, -pi} where one quadrature vanishes.
    """
    for name, value in (("i0_meas", i0_meas), ("q0_meas", q0_meas)):
        check_scalar(name, value)
    arr = np.asarray(phi, dtype=np.float64)
    measured = np.arctan2(q0_meas * np.sin(arr), i0_meas * np.cos(arr))
    return wrap_phase(measured - arr) if arr.ndim else float(wrap_phase(measured - arr))


def simulate_trace(path: PhasePath, laser: LaserParams, ifm: InterferometerParams,
                   det_i: DetectorParams, det_q: DetectorParams,
                   switches: NoiseSwitches = NoiseSwitches(),
                   seed: int = 0) -> IQTrace:
    """Produce the I/Q voltage trace for a phase path.

    ``seed`` drives the noise draws only (the phase path carries its own);
    each noise source uses a distinct stream, so toggling one switch never
    changes another source's draws.  With ``switches.mismatch`` off the Q
    channel uses the I channel's gain (perfectly matched detectors) while
    keeping its own noise figure.  Negative instantaneous power draws are
    clamped to zero and counted in ``clamped_samples``.  The I and Q
    chains run concurrently, Q on a worker thread that is joined before
    this returns or raises; the bytes do not depend on the scheduling.
    """
    count = len(path)
    seed = rng.check_seed(seed)
    # Each full-length draw is reused as its working array.  Operands may
    # swap (IEEE addition and multiplication commute) but no expression is
    # reassociated, so the bytes equal those of the plain out-of-place
    # expressions.
    phase = np.asarray(path.increments, dtype=np.float64)
    if switches.drift:
        if ifm.drift_mode == "slow-walk" and ifm.drift_step > 0.0:
            drift = rng.standard_normals(count, seed, _STREAM_DRIFT)
            drift *= ifm.drift_step
            np.cumsum(drift, out=drift)
            drift += ifm.drift_phase - drift[0]   # walk starts at drift_phase
            drift += phase
            phase = drift
        else:
            phase = phase + ifm.drift_phase
        phase += ifm.static_phase
    else:
        phase = phase + ifm.static_phase

    k = float(ifm.delay_loss)
    t = float(ifm.bs_transmittance)
    p_sig = k * t * laser.mean_power
    p_lo = (1.0 - t) * laser.mean_power

    clamped = 0
    if switches.intensity and laser.intensity_sigma > 0.0:
        # The source power fluctuation epsilon(t) propagates through each
        # arm with that arm's transmission; the two arm draws are
        # independent but shared between the I and Q channels.
        eps_s = rng.standard_normals(count, seed, _STREAM_INTENSITY_S)
        eps_s *= k * t * laser.intensity_sigma
        eps_s += p_sig
        eps_lo = rng.standard_normals(count, seed, _STREAM_INTENSITY_LO)
        eps_lo *= (1.0 - t) * laser.intensity_sigma
        eps_lo += p_lo
        clamped = int(np.count_nonzero((eps_s < 0.0) | (eps_lo < 0.0)))
        if clamped:
            np.maximum(eps_s, 0.0, out=eps_s)
            np.maximum(eps_lo, 0.0, out=eps_lo)
        eps_s *= eps_lo
        del eps_lo
        envelope = np.sqrt(eps_s, out=eps_s)
    else:
        envelope = np.sqrt(p_sig * p_lo)

    gain_i = det_i.transimpedance * det_i.responsivity
    gain_q = (det_q.transimpedance * det_q.responsivity) if switches.mismatch else gain_i

    # v_i = (gain_i * envelope) * cos(phase), v_q = (gain_q * envelope) * sin(phase);
    # envelope is an array only with intensity noise.
    if np.ndim(envelope):
        v_i = gain_i * envelope
        v_q = envelope
        v_q *= gain_q
    else:
        v_i = np.full(count, gain_i * envelope)
        v_q = np.full(count, gain_q * envelope)
    if switches.bandwidth_limit:
        from scipy.signal import lfilter

    def lane(v: np.ndarray, quadrature, det: DetectorParams, stream: int) -> None:
        """Finish one channel in place, one RNG block of samples at a time.

        Carrying the filter state across segments and drawing each
        segment's noise from its own block gives the bytes of the
        whole-array computation with one block of temporaries.
        """
        if switches.bandwidth_limit:
            alpha = -np.expm1(-path.sample_period / det.response_time)
            state = [0.0]
        noisy = switches.electrical and det.electrical_noise_sigma > 0.0
        for lo in range(0, count, rng.BLOCK_SIZE):
            hi = min(lo + rng.BLOCK_SIZE, count)
            seg = v[lo:hi]
            seg *= quadrature(phase[lo:hi])
            if switches.bandwidth_limit:
                seg[:], state = lfilter([alpha], [1.0, alpha - 1.0], seg, zi=state)
            if noisy:
                noise = rng.standard_normals_range(lo, hi, seed, stream)
                noise *= det.electrical_noise_sigma
                seg += noise

    # The Q lane runs on a worker thread while this thread runs the I lane;
    # numpy, lfilter and the Philox fills release the GIL.  Leaving the
    # pool joins the worker, also when a lane raised.
    with ThreadPoolExecutor(max_workers=1) as pool:
        q_lane = pool.submit(lane, v_q, np.sin, det_q, _STREAM_ELECTRICAL_Q)
        lane(v_i, np.cos, det_i, _STREAM_ELECTRICAL_I)
        q_lane.result()

    return IQTrace(v_i=v_i, v_q=v_q, sample_rate=1.0 / path.sample_period,
                   clamped_samples=clamped)


def quantize_uniform(values, n_bits: int, lo: float, hi: float) -> np.ndarray:
    """Uniform n-bit quantizer over [lo, hi) with saturation at both ends."""
    n_bits = check_scalar("n_bits", n_bits, bounds=(1, 16))
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ParameterError(f"need finite lo < hi, got {lo}, {hi}")
    arr = np.asarray(values, dtype=np.float64)
    levels = 1 << n_bits
    scaled = (arr - lo) * (levels / (hi - lo))
    codes = np.floor(scaled)
    np.clip(codes, 0, levels - 1, out=codes)
    return codes.astype(np.uint16)


def adc_quantize(trace: IQTrace, det_i: DetectorParams,
                 det_q: DetectorParams) -> IQTrace:
    """Snap each channel onto its ADC's mid-rise reconstruction levels.

    Models digitization of the voltages before phase reconstruction: 2^bits
    uniform levels across [-fullscale, +fullscale], saturating outside.
    The trace records the I channel's ADC bits and full scale.
    """
    def snap(values: np.ndarray, det: DetectorParams) -> np.ndarray:
        bits, full = int(det.adc_bits), det.adc_fullscale
        step = 2.0 * full / (1 << bits)
        return -full + (quantize_uniform(values, bits, -full, full) + 0.5) * step

    return replace(trace, v_i=snap(trace.v_i, det_i), v_q=snap(trace.v_q, det_q),
                   adc_bits=int(det_i.adc_bits), fullscale=det_i.adc_fullscale)


def boxcar_decimate(trace: IQTrace, factor: int) -> IQTrace:
    """Average non-overlapping windows of ``factor`` samples per channel.

    Models averaging acquisition (high-resolution mode) of a digitizer
    running ``factor`` times faster than the delivered sample rate.  A
    trailing partial window is dropped.
    """
    factor = check_scalar("factor", factor, bounds=(1, None))
    if factor == 1:
        return trace
    full = len(trace) // factor
    if full == 0:
        raise ParameterError(f"trace too short to decimate by {factor}")
    v_i = _window_mean(trace.v_i[:full * factor].reshape(full, factor))
    v_q = _window_mean(trace.v_q[:full * factor].reshape(full, factor))
    return replace(trace, v_i=v_i, v_q=v_q, sample_rate=trace.sample_rate / factor)


def _window_mean(windows: np.ndarray) -> np.ndarray:
    """Row means of a 2-D float64 array, bit-identical to ``mean(axis=1)``.

    Below 8 columns numpy sums each row left to right from +0.0, one row at
    a time; summing whole columns in that order gives the same bytes (also
    +0.0 for a row of -0.0), about seven times faster at 2 columns.  From 8
    columns numpy sums pairwise, so ``mean`` itself is used.
    """
    factor = windows.shape[1]
    if factor >= 8:
        return windows.mean(axis=1)
    total = 0.0 + windows[:, 0]
    for k in range(1, factor):
        total += windows[:, k]
    total /= factor
    return total


def validate_timing(laser: LaserParams, ifm: InterferometerParams,
                    det: DetectorParams, sample_rate: float) -> list[str]:
    """Advisory checks of the timing relations between device parameters.

    Returns messages prefixed "warning:" (detector too slow for the laser's
    coherence time; phase variance below the uniform-phase threshold of 10)
    or "note:" (the expected lag-1 correlation at this sample rate).
    """
    check_scalar("sample_rate", sample_rate)
    messages: list[str] = []
    if det.response_time >= laser.coherence_time:
        messages.append(
            f"warning: detector response time {det.response_time:g} s is not below "
            f"the coherence time {laser.coherence_time:g} s; the detector will "
            "average out the phase fluctuations")
    sigma_sq = phase_variance(ifm.delay_length, ifm.fiber_index, laser.coherence_time)
    if sigma_sq < 10.0:
        messages.append(
            f"warning: phase variance {sigma_sq:.3g} rad^2 is below 10; the wrapped "
            "phase will not be uniform")
    t_d = ifm.delay_time
    expected = max(0.0, 1.0 - (1.0 / sample_rate) / t_d)
    messages.append(
        f"note: expected lag-1 correlation of raw phase increments at "
        f"{sample_rate:g} Sa/s is {expected:.3f}")
    return messages
