import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from phaserng import analysis
from phaserng import phasenoise as pn
from phaserng import rng
from phaserng.errors import ParameterError

TAU_C = 6e-9


def test_delay_time_formula():
    assert pn.delay_time(6.0, 1.5) == 1.5 * 6.0 / pn.SPEED_OF_LIGHT
    assert pn.delay_time(0.0, 1.5) == 0.0


def test_delay_time_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        pn.delay_time(-1.0, 1.5)
    with pytest.raises(ParameterError):
        pn.delay_time(1.0, 0.9)
    with pytest.raises(ParameterError):
        pn.delay_time(float("nan"), 1.5)


def test_phase_variance_law():
    # sigma^2 = 2 * n * L / (c * tau_c), linear in L
    for length in range(1, 7):
        expected = 2.0 * 1.5 * length / (pn.SPEED_OF_LIGHT * TAU_C)
        assert pn.phase_variance(length, 1.5, TAU_C) == pytest.approx(
            expected, rel=1e-15)
    assert pn.phase_variance(2.0, 1.5, TAU_C) == 2 * pn.phase_variance(
        1.0, 1.5, TAU_C)


def test_phase_variance_rejects_bad_coherence_time():
    with pytest.raises(ParameterError):
        pn.phase_variance(1.0, 1.5, 0.0)
    with pytest.raises(ParameterError):
        pn.phase_variance(1.0, 1.5, -1e-9)


class TestLaserParams:
    def test_neither_given_rejected(self):
        # The coherence time is required: there is no default to fall back on.
        with pytest.raises(TypeError, match="coherence_time"):
            pn.LaserParams()

    # A bad coherence time is refused by name, never replaced.
    @pytest.mark.parametrize("bad", [math.nan, -5e6, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_given_value_is_not_replaced(self, bad):
        with pytest.raises(ParameterError, match="coherence_time"):
            pn.LaserParams(coherence_time=bad)

    def test_power_validation(self):
        with pytest.raises(ParameterError):
            pn.LaserParams(coherence_time=TAU_C, mean_power=0.0)
        with pytest.raises(ParameterError):
            pn.LaserParams(coherence_time=TAU_C, intensity_sigma=-1.0)


class TestWrapPhase:
    def test_range(self):
        x = np.linspace(-50.0, 50.0, 10001)
        w = pn.wrap_phase(x)
        assert np.all(w >= -np.pi) and np.all(w < np.pi)

    def test_congruent_mod_two_pi(self):
        x = np.linspace(-50.0, 50.0, 10001)
        w = pn.wrap_phase(x)
        assert_allclose(np.cos(w), np.cos(x), atol=1e-12)
        assert_allclose(np.sin(w), np.sin(x), atol=1e-12)

    def test_idempotent(self):
        x = np.linspace(-50.0, 50.0, 10001)
        w = pn.wrap_phase(x)
        assert_array_equal(pn.wrap_phase(w), w)

    def test_in_range_values_unchanged(self):
        x = np.linspace(-np.pi, np.pi, 10001, endpoint=False)
        assert_array_equal(pn.wrap_phase(x), x)
        assert pn.wrap_phase(0.6) == 0.6

    def test_boundary_convention(self):
        assert pn.wrap_phase(np.pi) == -np.pi
        assert pn.wrap_phase(-np.pi) == -np.pi
        assert pn.wrap_phase(3 * np.pi) == -np.pi

    def test_scalar_returns_float(self):
        out = pn.wrap_phase(7.0)
        assert isinstance(out, float)
        assert out == pytest.approx(7.0 - 2 * np.pi)

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            pn.wrap_phase(float("inf"))


class TestWrappedGaussianPdf:
    """The wrapped law of the delay-line phase difference, through
    ``analysis.ReferenceLaw.wrapped_gaussian``: its CDF, and its density
    as a narrow bin's mass over the bin's width."""

    @staticmethod
    def density(x, sigma_sq, width=1e-3):
        law = analysis.ReferenceLaw.wrapped_gaussian(sigma_sq)
        lo = np.maximum(np.asarray(x, dtype=np.float64) - width / 2, -np.pi)
        return (law.cdf(lo + width) - law.cdf(lo)) / width

    @pytest.mark.parametrize("sigma_sq", [0.01, 0.1, 0.6, 1.0, 10.0, 100.0])
    def test_integrates_to_one(self, sigma_sq):
        law = analysis.ReferenceLaw.wrapped_gaussian(sigma_sq)
        assert law.cdf(-np.pi) == 0.0
        assert law.cdf(np.pi) == pytest.approx(1.0, abs=1e-14)
        masses = law.bin_masses(np.linspace(-np.pi, np.pi, 8193))
        assert np.all(masses >= 0.0)
        assert math.fsum(masses.tolist()) == pytest.approx(1.0, abs=1e-14)

    def test_narrow_limit_matches_unwrapped_gaussian(self):
        # at sigma^2 = 0.01 the replicas 2*pi away are 60 sigma out
        law = analysis.ReferenceLaw.wrapped_gaussian(0.01)
        for x in (-0.3, -0.05, 0.0, 0.25):
            assert law.cdf(x) == pytest.approx(
                0.5 * math.erfc(-x / (0.1 * math.sqrt(2.0))), rel=1e-12)
        assert self.density(0.0, 0.01, width=1e-4) == pytest.approx(
            1.0 / (0.1 * math.sqrt(2 * math.pi)), rel=1e-6)

    def test_wide_limit_is_uniform(self):
        x = np.linspace(-np.pi, np.pi, 101)
        assert_allclose(analysis.ReferenceLaw.wrapped_gaussian(100.0).cdf(x),
                        (x + np.pi) / (2 * np.pi), rtol=0.0, atol=1e-14)

    def test_symmetric(self):
        masses = analysis.ReferenceLaw.wrapped_gaussian(0.6).bin_masses(
            np.linspace(-np.pi, np.pi, 129))
        assert_allclose(masses, masses[::-1], rtol=0.0, atol=1e-15)

    def test_percent_level_ripple_at_sigma_sq_ten(self):
        # residual non-uniformity ~ 2*exp(-sigma^2/2) relative
        peak = self.density(0.0, 10.0)
        trough = self.density(-np.pi, 10.0)
        ripple = (peak - trough) * 2 * np.pi
        assert ripple == pytest.approx(4 * math.exp(-5.0), rel=1e-3)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError, match="variance"):
            analysis.ReferenceLaw.wrapped_gaussian(0.0)
        with pytest.raises(ParameterError, match="centre"):
            analysis.ReferenceLaw.wrapped_gaussian(1.0, math.nan)


def dense_phase_path(laser, delay, period, count, seed):
    """Oracle: sort all 2*count window edges, one sqrt per gap, one walk.

    Times are in sample periods and extended precision, so a delay that is
    a whole number of periods gives exact ties (zero-length gaps).
    """
    i = np.arange(count, dtype=np.longdouble)
    times = np.concatenate([i - np.longdouble(delay / period), i])
    order = np.argsort(times, kind="stable")
    gaps = np.diff(times[order]).astype(np.float64)
    steps = np.sqrt(2.0 * period * gaps / laser.coherence_time)
    walk = np.empty(2 * count)
    walk[order] = np.concatenate(
        [[0.0], np.cumsum(steps * rng.standard_normals(2 * count - 1, seed))])
    return walk[count:] - walk[:count]


class TestSamplePhasePath:
    LASER = pn.LaserParams(coherence_time=TAU_C)
    T_D = 30e-9  # delay giving sigma^2 = 10 exactly

    def test_deterministic(self):
        a = pn.sample_phase_path(self.LASER, self.T_D, 5e-9, 5000, seed=1)
        b = pn.sample_phase_path(self.LASER, self.T_D, 5e-9, 5000, seed=1)
        assert_array_equal(a.increments, b.increments)

    def test_seed_changes_path(self):
        a = pn.sample_phase_path(self.LASER, self.T_D, 5e-9, 5000, seed=1)
        b = pn.sample_phase_path(self.LASER, self.T_D, 5e-9, 5000, seed=2)
        assert not np.array_equal(a.increments, b.increments)

    def test_disjoint_windows_are_iid_draws(self):
        # sample period >= delay: increments are exactly sigma * normals
        path = pn.sample_phase_path(self.LASER, self.T_D, 50e-9, 1000, seed=4)
        sigma = math.sqrt(2.0 * self.T_D / TAU_C)
        assert_array_equal(path.increments,
                           sigma * rng.standard_normals(1000, 4))

    def test_marginal_variance(self):
        # overlapping-window case; sigma^2 = 10 with T_s/T_d = 1/6
        path = pn.sample_phase_path(self.LASER, self.T_D, 5e-9, 200_000, seed=6)
        assert path.increments.var() == pytest.approx(10.0, rel=0.05)
        assert abs(path.increments.mean()) < 0.05

    def test_lag_one_correlation(self):
        # expected 1 - T_s/T_d = 5/6
        path = pn.sample_phase_path(self.LASER, self.T_D, 5e-9, 200_000, seed=8)
        x = path.increments
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert rho == pytest.approx(5.0 / 6.0, abs=0.01)

    def test_chunking_does_not_change_path(self, monkeypatch):
        full = pn.sample_phase_path(self.LASER, self.T_D, 5e-9, 3000, seed=10)
        monkeypatch.setattr(pn, "_CHUNK_GRID_STEPS", 256)
        chunked = pn.sample_phase_path(self.LASER, self.T_D, 5e-9, 3000, seed=10)
        assert_allclose(chunked.increments, full.increments, atol=1e-12)

    def test_single_sample(self):
        path = pn.sample_phase_path(self.LASER, self.T_D, 5e-9, 1, seed=0)
        assert len(path) == 1

    def test_irrational_ratio_approximated(self):
        # T_s/T_d with no small exact fraction still yields valid stats
        path = pn.sample_phase_path(self.LASER, 30.0207e-9, 1e-10, 200_000, seed=3)
        var = 2.0 * 30.0207e-9 / TAU_C
        assert path.increments.var() == pytest.approx(var, rel=0.2)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            pn.sample_phase_path(self.LASER, self.T_D, 5e-9, 0, seed=0)
        with pytest.raises(ParameterError):
            pn.sample_phase_path(self.LASER, 0.0, 5e-9, 10, seed=0)
        with pytest.raises(ParameterError):
            pn.sample_phase_path(self.LASER, self.T_D, 0.0, 10, seed=0)

    def test_extreme_ratio_draws_at_most_two_normals_per_sample(self, monkeypatch):
        requested = []
        draw = rng.standard_normals_range

        def spy(start, stop, *args):
            requested.append(stop - start)
            return draw(start, stop, *args)

        monkeypatch.setattr(rng, "standard_normals_range", spy)
        path = pn.sample_phase_path(self.LASER, 1.0, 1e-12, 10, seed=0)
        assert len(path) == 10
        assert np.all(np.isfinite(path.increments))
        assert sum(requested) <= 20

    @pytest.mark.parametrize("delay,period,count,chunk", [
        (6 * 4e-9, 4e-9, 500, None),                           # tie, f = 0
        (pn.delay_time(20.0, 1.5), 1 / 400e6, 3000, None),     # 20 m point
        (30e-9, 5e-9, 4, None),                                # q + 1 >= count
        (30e-9, 5e-9, 6, None),
        (30e-9, 5e-9, 1, None),
        (pn.delay_time(20.0, 1.5), 1 / 400e6, 300, 7),         # chunked
        (6 * 4e-9, 4e-9, 300, 8),
    ])
    def test_matches_sorted_oracle(self, monkeypatch, delay, period, count, chunk):
        if chunk is not None:
            monkeypatch.setattr(pn, "_CHUNK_GRID_STEPS", chunk)
        path = pn.sample_phase_path(self.LASER, delay, period, count, seed=21)
        assert_allclose(path.increments,
                        dense_phase_path(self.LASER, delay, period, count, 21),
                        rtol=0.0, atol=1e-12)

    def test_lag_k_correlation_incommensurate(self):
        delay, period = 30.0207e-9, 7.3e-9
        x = pn.sample_phase_path(self.LASER, delay, period, 200_000,
                                 seed=12).increments
        for k in (1, 2, 3):
            rho = np.corrcoef(x[:-k], x[k:])[0, 1]
            assert rho == pytest.approx(max(0.0, 1.0 - k * period / delay),
                                        abs=0.01), k


def test_phase_path_validation():
    with pytest.raises(ParameterError):
        pn.PhasePath(increments=np.array([]), sample_period=1e-9)
    with pytest.raises(ParameterError):
        pn.PhasePath(increments=np.zeros((2, 2)), sample_period=1e-9)


class TestWrappedDistributionRegimes:
    LASER = pn.LaserParams(coherence_time=TAU_C)

    @staticmethod
    def _hist(values):
        counts, _ = np.histogram(values, bins=256, range=(-math.pi, math.pi))
        return counts / values.size

    def test_large_variance_wraps_to_uniform(self):
        # variance 10: wrapped increments indistinguishable from uniform
        path = pn.sample_phase_path(self.LASER, 30e-9, 5e-9, 1_000_000, seed=14)
        p = self._hist(pn.wrap_phase(path.increments))
        q = 1.0 / 256.0
        kld = float(np.sum(p[p > 0] * np.log2(p[p > 0] / q)))
        assert kld < 0.01

    def test_small_variance_folding_inactive(self):
        # variance 0.1: wrapping never moves a sample, histograms coincide
        path = pn.sample_phase_path(self.LASER, 0.3e-9, 5e-9, 1_000_000, seed=15)
        raw = path.increments
        assert np.abs(raw).max() < math.pi
        p = self._hist(pn.wrap_phase(raw))
        q = self._hist(raw)
        mask = p > 0
        assert np.all(q[mask] > 0)
        kld = float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))
        assert abs(kld) < 1e-3
