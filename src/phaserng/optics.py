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
gain mismatch, and a single-pole detector-bandwidth limit, a numpy scan
(``_single_pole``) that releases the GIL, so the I and Q lanes filter
concurrently.  With every switch off the trace is the ideal noiseless model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import rng
from .errors import ParameterError, check_choice, check_fields, check_flags, check_scalar
from .phasenoise import LaserParams, PhasePath, delay_time, phase_variance, wrap_phase

#: How the classical phase phi_0 evolves when the drift switch is on.
DRIFT_MODES = ("fixed", "slow-walk")

#: Samples per working buffer of the per-sample kernels: a multiple of the
#: SIMD width, so a piece's edges split no vector of ``rng.SPAN``'s spans.
_PIECE = 1 << 14

#: The quantizer's pieces: its passes cost so little per sample that at
#: ``_PIECE`` samples the calls' own cost doubled its time.
_LEVEL_PIECE = 1 << 16


def _pieces(lo: int, hi: int, size: int = _PIECE):
    """The (start, stop) pairs that cut ``range(lo, hi)`` every ``size`` samples."""
    return ((a, min(a + size, hi)) for a in range(lo, hi, size))


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
        object.__setattr__(self, "static_phase", wrap_phase(self.static_phase))
        object.__setattr__(self, "drift_phase", wrap_phase(self.drift_phase))
        delay_time(self.delay_length, self.fiber_index)    # its range checks
        check_fields(self, "delay_length", "drift_step", zero_ok=True)
        check_fields(self, "fiber_index", "delay_loss", "bs_transmittance")

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
        check_fields(self, "transimpedance", "responsivity", "response_time", "adc_fullscale")
        check_fields(self, "electrical_noise_sigma", zero_ok=True)
        check_fields(self, "adc_bits", bounds=(1, 16))


@dataclass(frozen=True)
class NoiseSwitches:
    """Independent enables for each modeled imperfection."""

    intensity: bool = False
    electrical: bool = False
    drift: bool = False
    mismatch: bool = False
    bandwidth_limit: bool = False

    def __post_init__(self):
        check_flags(self, *(f.name for f in fields(self)))


@dataclass(frozen=True)
class IQTrace:
    """Time-aligned dual-channel voltage samples."""

    v_i: np.ndarray = field(repr=False)
    v_q: np.ndarray = field(repr=False)
    sample_rate: float
    clamped_samples: int = 0          # power draws clamped to zero during simulation
    adc_clipped_i: int = 0            # samples outside the ADC's [-F, F), I channel
    adc_clipped_q: int = 0            # and Q channel
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


def _gain_detectors(det_i: DetectorParams, det_q: DetectorParams,
                    switches: NoiseSwitches) -> tuple[DetectorParams, DetectorParams]:
    """The detectors whose gain Z*R channels I and Q have: Q's only with mismatch on."""
    return det_i, (det_q if switches.mismatch else det_i)


def simulate_trace(path: PhasePath, laser: LaserParams, ifm: InterferometerParams,
                   det_i: DetectorParams, det_q: DetectorParams,
                   switches: NoiseSwitches = NoiseSwitches(),
                   seed: int = 0) -> IQTrace:
    """Produce the I/Q voltage trace for a phase path.

    ``seed`` drives the noise draws only (the phase path carries its own);
    each noise source uses a distinct stream, so toggling one switch never
    changes another source's draws.  With ``switches.mismatch`` off the Q
    channel has the I channel's gain (``_gain_detectors``, which
    ``validate_device`` also applies).  Negative instantaneous power draws
    are clamped to zero and counted in ``clamped_samples``.

    The work allocates the two outputs and buffers of ``_PIECE`` samples,
    nothing of the trace's size.  The head runs one RNG block per
    ``rng.map_blocks`` item: it writes the phase (before the slow walk's
    cumulative sum, the one pass over the whole array) into ``v_q`` and the
    envelope into ``v_i``, drawing the two arm powers piece by piece from
    the block's generators.  One ``rng.map_spans`` pass then forms both
    quadratures in place.  Last, the I and Q lanes filter and add their
    electrical noise, drawn piece by piece, as two ``rng.map_blocks``
    items, concurrently when two CPUs are usable.  The bytes do not depend
    on the scheduling.
    """
    count = len(path)
    seed = rng.check_seed(seed)
    increments = np.asarray(path.increments, dtype=np.float64)
    walk = (switches.drift and ifm.drift_mode == "slow-walk"
            and ifm.drift_step > 0.0)
    intensity = switches.intensity and laser.intensity_sigma > 0.0
    k = float(ifm.delay_loss)
    t = float(ifm.bs_transmittance)
    p_sig = k * t * laser.mean_power
    p_lo = (1.0 - t) * laser.mean_power
    level = np.sqrt(p_sig * p_lo)
    gain_i, gain_q = (d.transimpedance * d.responsivity
                      for d in _gain_detectors(det_i, det_q, switches))
    blocks = range(0, count, rng.BLOCK_SIZE)
    # Each piece evaluates, in place on its slices, the whole-array expressions
    #   phase = ((cumsum(step * n_drift) + (drift_phase - first)) + increments) + static_phase
    #   envelope = sqrt(max(n_s * c_s + p_sig, 0) * max(n_lo * c_lo + p_lo, 0))
    #   v_i = gain_i * envelope * cos(phase), v_q = envelope * gain_q * sin(phase)
    # (without the walk, phase = (increments + drift_phase) + static_phase,
    # or increments + static_phase with the drift off; without the intensity
    # noise, envelope = level).  Operands may swap (IEEE addition and
    # multiplication commute) but nothing is reassociated, so the bytes are
    # those of the whole-array expressions.
    v_i = np.empty(count)
    v_q = np.empty(count)

    def head(lo: int) -> int:
        """One block of the phase (before the walk's sum) in v_q and of the
        envelope in v_i; its clamp count.

        ``np.maximum(x, 0.0)`` returns x for every x >= +0.0, and p + s*n is
        never -0.0, so clamping only the pieces that have a negative draw
        gives the bytes of clamping the whole array.
        """
        hi = min(lo + rng.BLOCK_SIZE, count)
        block = lo // rng.BLOCK_SIZE
        ph = v_q[lo:hi]
        if walk:
            rng.block_generator(seed, rng.STREAM_DRIFT, block).standard_normal(out=ph)
            ph *= ifm.drift_step
        elif switches.drift:
            np.add(increments[lo:hi], ifm.drift_phase, out=ph)
            ph += ifm.static_phase
        else:
            np.add(increments[lo:hi], ifm.static_phase, out=ph)
        if not intensity:
            v_i[lo:hi].fill(level)
            return 0
        # The source power fluctuation epsilon(t) propagates through each
        # arm with that arm's transmission; the two arm draws are
        # independent but shared between the I and Q channels.
        arm_s = rng.block_generator(seed, rng.STREAM_INTENSITY_S, block)
        arm_lo = rng.block_generator(seed, rng.STREAM_INTENSITY_LO, block)
        buffer = np.empty(min(_PIECE, hi - lo))
        clamped = 0
        for a, b in _pieces(lo, hi):
            eps_s = arm_s.standard_normal(out=buffer[:b - a])
            eps_s *= k * t * laser.intensity_sigma
            eps_s += p_sig
            eps_lo = arm_lo.standard_normal(out=v_i[a:b])
            eps_lo *= (1.0 - t) * laser.intensity_sigma
            eps_lo += p_lo
            negative = int(np.count_nonzero((eps_s < 0.0) | (eps_lo < 0.0)))
            if negative:
                clamped += negative
                np.maximum(eps_s, 0.0, out=eps_s)
                np.maximum(eps_lo, 0.0, out=eps_lo)
            eps_lo *= eps_s
            np.sqrt(eps_lo, out=eps_lo)
        return clamped

    clamped = sum(rng.map_blocks(head, blocks))
    if walk:
        np.cumsum(v_q, out=v_q)
        start = ifm.drift_phase - v_q[0]    # the walk starts at drift_phase

    def quadratures(span: slice) -> None:
        """Both channels of one span, in place, through cos and sin pieces."""
        size = min(_PIECE, span.stop - span.start)
        cos_piece, sin_piece = np.empty(size), np.empty(size)
        for a, b in _pieces(span.start, span.stop):
            ph, env = v_q[a:b], v_i[a:b]
            if walk:
                ph += start
                ph += increments[a:b]
                ph += ifm.static_phase
            c = np.cos(ph, out=cos_piece[:b - a])
            s = np.sin(ph, out=sin_piece[:b - a])
            np.multiply(env, gain_q, out=ph)
            ph *= s
            env *= gain_i
            env *= c

    rng.map_spans(quadratures, count)

    def lane(channel) -> None:
        """Filter one channel ``(v, det, stream)`` in place and add its noise.

        The filter goes one RNG block at a time with its state carried, and
        each block's noise comes piece by piece from the block's generator,
        so the bytes are those of the whole-array computation.  The filter
        coefficient comes from ``math``: numpy's ``expm1`` picks its SIMD
        loop at run time, and the loops differ in the last bit.
        """
        v, det, stream = channel
        if switches.bandwidth_limit:
            alpha = -math.expm1(-path.sample_period / det.response_time)
            state = 0.0
        noisy = switches.electrical and det.electrical_noise_sigma > 0.0
        if noisy:
            buffer = np.empty(min(_PIECE, count))
        for lo in blocks:
            hi = min(lo + rng.BLOCK_SIZE, count)
            if switches.bandwidth_limit:
                state = _single_pole(v[lo:hi], alpha, state)
            if noisy:
                gen = rng.block_generator(seed, stream, lo // rng.BLOCK_SIZE)
                for a, b in _pieces(lo, hi):
                    noise = gen.standard_normal(out=buffer[:b - a])
                    noise *= det.electrical_noise_sigma
                    v[a:b] += noise

    # The lanes overlap: numpy and the SFC64 normal fills release the GIL.
    rng.map_blocks(lane, [(v_i, det_i, rng.STREAM_ELECTRICAL_I),
                          (v_q, det_q, rng.STREAM_ELECTRICAL_Q)])

    return IQTrace(v_i=v_i, v_q=v_q, sample_rate=1.0 / path.sample_period,
                   clamped_samples=clamped)


def _single_pole(x: np.ndarray, alpha: float, state: float) -> float:
    """Filter ``x`` in place, y[n] = alpha*x[n] + c*y[n-1] with c = 1 - alpha
    from y[-1] = ``state``; return the last y.

    Each RNG block is cut into rows of L samples, L a power of two up to
    2^10 with c^-(L-1) at most 2^512.  A row times alpha*c^-k, summed along
    the row, plus c times its carry-in (from a doubling pass over the row
    ends), times c^k, is y.  The tail runs in Python.  A block is whole
    rows, so calls split at block edges with the state carried give one
    call's bytes.  The tables use Python's ``**``: numpy's ``power`` picks
    its SIMD loop at run time, and the loops differ in the last bit.
    """
    c = 1.0 - alpha
    if c == 0.0:
        x *= alpha
        return float(x[-1])
    width = 1 << 10
    while width > 1 and (width - 1) * -math.log2(c) > 512:
        width >>= 1
    up = np.array([alpha * c ** -k for k in range(width)])
    down = np.array([c ** k for k in range(width)])
    for lo in range(0, x.size, rng.BLOCK_SIZE):
        seg = x[lo:lo + rng.BLOCK_SIZE]
        rows = seg.size // width
        if rows:
            body = seg[:rows * width].reshape(rows, width)
            body *= up
            np.cumsum(body, axis=1, out=body)
            carry = np.empty(rows + 1)    # y[-1], then y at each row's end
            carry[0] = state
            np.multiply(body[:, -1], down[-1], out=carry[1:])
            carry[1] += c ** width * state
            factor, shift = c ** width, 1
            while shift < rows and factor > 0.0:
                carry[1 + shift:] += factor * carry[1:-shift]
                factor, shift = factor * factor, 2 * shift
            carry *= c
            body += carry[:-1, None]
            body *= down
            state = float(body[-1, -1])
        for n in range(rows * width, seg.size):
            state = seg[n] = alpha * float(seg[n]) + c * state
    return state


def _level_indices(values: np.ndarray, n_bits: int, lo: float, hi: float,
                   out: np.ndarray) -> np.ndarray:
    """Each value's level of the n-bit quantizer over [lo, hi), into ``out``.

    In-place passes on the float64 ``out``: the values below ``lo`` get
    level 0 and those from ``hi`` up the top level.
    """
    levels = 1 << n_bits
    np.subtract(values, lo, out=out)
    out *= levels / (hi - lo)
    np.floor(out, out=out)
    np.clip(out, 0, levels - 1, out=out)
    return out


def quantize_uniform(values, n_bits: int, lo: float, hi: float) -> np.ndarray:
    """Uniform n-bit quantizer over [lo, hi) with saturation at both ends.

    Runs on ``rng.map_spans``: each span has its own float64 levels buffer
    of ``_LEVEL_PIECE`` samples, through which it quantizes its slice of the
    codes piece by piece.
    """
    n_bits = check_scalar("n_bits", n_bits, bounds=(1, 16))
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ParameterError(f"need finite lo < hi, got {lo}, {hi}")
    arr = np.asarray(values, dtype=np.float64)
    flat = arr.reshape(-1)
    codes = np.empty(flat.size, dtype=np.uint16)

    def span(s: slice) -> None:
        levels = np.empty(min(_LEVEL_PIECE, s.stop - s.start))
        for a, b in _pieces(s.start, s.stop, _LEVEL_PIECE):
            codes[a:b] = _level_indices(flat[a:b], n_bits, lo, hi, levels[:b - a])

    rng.map_spans(span, flat.size)
    return codes.reshape(arr.shape)


def adc_quantize(trace: IQTrace, det_i: DetectorParams,
                 det_q: DetectorParams) -> IQTrace:
    """Snap each channel onto its ADC's mid-rise reconstruction levels.

    Models digitization of the voltages before phase reconstruction: 2^bits
    uniform levels across [-fullscale, +fullscale), saturating outside.
    The trace records the I channel's ADC bits and full scale, and each
    channel's count of samples outside that range.  Level c snaps to
    -F + (c + 0.5)*step, computed in place on the float64 levels of
    ``quantize_uniform``: every level is an integer below 2^16, so the
    bytes are those of going through its uint16 codes.  The channels run
    as two lanes through ``rng.map_blocks``, each into an array that the
    calling thread allocated.
    """
    def snap(channel) -> int:
        values, det, snapped = channel
        bits, full = int(det.adc_bits), det.adc_fullscale
        step = 2.0 * full / (1 << bits)
        clipped = int(np.count_nonzero(values < -full) + np.count_nonzero(values >= full))
        _level_indices(values, bits, -full, full, snapped)
        snapped += 0.5
        snapped *= step
        snapped += -full
        return clipped

    v_i, v_q = np.empty(len(trace)), np.empty(len(trace))
    clipped_i, clipped_q = rng.map_blocks(
        snap, [(trace.v_i, det_i, v_i), (trace.v_q, det_q, v_q)])
    return replace(trace, v_i=v_i, v_q=v_q, adc_clipped_i=clipped_i,
                   adc_clipped_q=clipped_q, adc_bits=int(det_i.adc_bits),
                   fullscale=det_i.adc_fullscale)


def boxcar_decimate(trace: IQTrace, factor: int) -> IQTrace:
    """Average non-overlapping windows of ``factor`` samples per channel.

    Models averaging acquisition (high-resolution mode) of a digitizer
    running ``factor`` times faster than the delivered sample rate.  A
    trailing partial window is dropped.  The channels run as two lanes
    through ``rng.map_blocks``, each into an array that the calling thread
    allocated.
    """
    factor = check_scalar("factor", factor, bounds=(1, None))
    if factor == 1:
        return trace
    full = len(trace) // factor
    if full == 0:
        raise ParameterError(f"trace too short to decimate by {factor}")
    def average(lane) -> None:
        values, out = lane
        _window_mean(values[:full * factor].reshape(full, factor), out)

    v_i, v_q = np.empty(full), np.empty(full)
    rng.map_blocks(average, [(trace.v_i, v_i), (trace.v_q, v_q)])
    return replace(trace, v_i=v_i, v_q=v_q, sample_rate=trace.sample_rate / factor)


def _window_mean(windows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row means of a 2-D float64 array into ``out``, bit-identical to
    ``mean(axis=1)``.

    Below 8 columns numpy sums each row left to right from +0.0, one row at
    a time; summing whole columns in that order gives the same bytes (also
    +0.0 for a row of -0.0), about seven times faster at 2 columns.  From 8
    columns numpy sums pairwise, so ``mean`` itself is used.
    """
    factor = windows.shape[1]
    if factor >= 8:
        return windows.mean(axis=1, out=out)
    total = np.add(0.0, windows[:, 0], out=out)
    for k in range(1, factor):
        total += windows[:, k]
    total /= factor
    return total


def validate_device(laser: LaserParams, ifm: InterferometerParams,
                    det_i: DetectorParams, det_q: DetectorParams,
                    switches: NoiseSwitches, adc_quantize: bool) -> list[str]:
    """Advisory checks of the device that ``simulate_trace`` models.

    Returns "warning:" messages, in order: the slower detector is too slow
    for the laser's coherence time; the phase variance is below the
    uniform-phase threshold of 10; with ``adc_quantize``, each channel whose
    predicted amplitude (at the gains of ``_gain_detectors``) exceeds its
    ADC's full scale.  A sound device gets none.
    """
    messages: list[str] = []
    slower = max(det_i, det_q, key=lambda det: det.response_time)
    if slower.response_time >= laser.coherence_time:
        messages.append(
            f"warning: detector response time {slower.response_time:g} s is not below "
            f"the coherence time {laser.coherence_time:g} s; the detector will "
            "average out the phase fluctuations")
    sigma_sq = phase_variance(ifm.delay_length, ifm.fiber_index, laser.coherence_time)
    if sigma_sq < 10.0:
        messages.append(
            f"warning: phase variance {sigma_sq:.3g} rad^2 is below 10; the wrapped "
            "phase will not be uniform")
    if adc_quantize:
        gains = _gain_detectors(det_i, det_q, switches)
        for channel, gain, adc in zip("IQ", gains, (det_i, det_q)):
            amplitude = bhd_amplitude(laser, ifm, gain)
            if amplitude > adc.adc_fullscale:
                messages.append(f"warning: predicted {channel} amplitude {amplitude:.3g} V "
                                f"exceeds the ADC full scale {adc.adc_fullscale:g} V")
    return messages
