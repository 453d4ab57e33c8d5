"""Clock model: parameter validation, readings, corrections, delays."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clocksync.clock import (
    ClockParams,
    CorrectionState,
    DelayModel,
    corrected_time,
    read_local_time,
    sample_delay,
)


class TestClockParams:
    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            ClockParams(alpha=0.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ClockParams(alpha=1.0, xi_sigma=-0.1)

    def test_unknown_dist_rejected(self):
        with pytest.raises(ValueError):
            ClockParams(alpha=1.0, dist="cauchy")

    def test_defaults(self):
        c = ClockParams(alpha=1.02)
        assert c.beta == 0.0 and c.xi_sigma == 0.0 and c.dist == "normal"


class TestDelayModel:
    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError):
            DelayModel(0.0)
        with pytest.raises(ValueError):
            DelayModel(-0.1)

    def test_nonpositive_floor_rejected(self):
        with pytest.raises(ValueError):
            DelayModel(0.1, delta_min=0.0)


class TestReadLocalTime:
    def test_noiseless_is_affine(self):
        # alpha * t + beta exactly when xi_sigma = 0
        rng = np.random.default_rng(0)
        c = ClockParams(alpha=1.03, beta=-0.2)
        assert read_local_time(c, 5.0, rng) == 1.03 * 5.0 - 0.2

    def test_nonfinite_time_rejected(self):
        rng = np.random.default_rng(0)
        c = ClockParams(alpha=1.0)
        with pytest.raises(ValueError):
            read_local_time(c, math.inf, rng)

    def test_noise_statistics_normal(self):
        rng = np.random.default_rng(1)
        c = ClockParams(alpha=1.0, beta=0.0, xi_sigma=0.05)
        draws = np.array([read_local_time(c, 2.0, rng) - 2.0
                          for _ in range(20000)])
        assert abs(draws.mean()) < 3 * 0.05 / math.sqrt(len(draws))
        assert abs(draws.std() - 0.05) < 0.002

    def test_uniform_noise_is_bounded(self):
        # uniform shape keeps every draw within sqrt(3) * sigma
        rng = np.random.default_rng(2)
        c = ClockParams(alpha=1.0, xi_sigma=0.05, dist="uniform")
        bound = math.sqrt(3.0) * 0.05 + 1e-12
        for _ in range(2000):
            assert abs(read_local_time(c, 0.0, rng)) <= bound


class TestCorrectedTime:
    def test_identity_correction(self):
        assert corrected_time(CorrectionState(), 3.7) == 3.7

    @given(st.floats(-10, 10), st.floats(-10, 10),
           st.floats(-100, 100))
    def test_affine(self, a, b, tau):
        s = CorrectionState(a_hat=a, b_hat=b)
        assert corrected_time(s, tau) == pytest.approx(a * tau + b)


class TestSampleDelay:
    def test_floor_enforced(self):
        # jitter far larger than the mean cannot push a delay below the floor
        rng = np.random.default_rng(3)
        m = DelayModel(0.01, eta_sigma=1.0, delta_min=1e-6)
        for _ in range(5000):
            assert sample_delay(m, rng) >= 1e-6

    def test_no_jitter_is_exact(self):
        rng = np.random.default_rng(4)
        m = DelayModel(0.1)
        assert sample_delay(m, rng) == 0.1

    def test_mean_matches(self):
        rng = np.random.default_rng(5)
        m = DelayModel(0.5, eta_sigma=0.05)
        draws = np.array([sample_delay(m, rng) for _ in range(20000)])
        assert abs(draws.mean() - 0.5) < 0.002


class TestBlockDraws:
    """A block of draws equals as many single draws from the same stream."""

    @given(dist=st.sampled_from(["normal", "uniform"]),
           sigma=st.sampled_from([0.0, 0.01, 0.5]), m=st.integers(0, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_readings_and_delays(self, dist, sigma, m, seed):
        clock = ClockParams(1.01, -0.2, sigma, dist)
        delay = DelayModel(0.1, sigma, 0.05, dist)
        t = np.linspace(0.5, 9.0, m)
        rng = np.random.default_rng(seed)
        readings = read_local_time(clock, t, rng)
        delays = sample_delay(delay, rng, m)
        ref = np.random.default_rng(seed)
        assert readings.tolist() == [read_local_time(clock, x, ref)
                                     for x in t.tolist()]
        assert delays.tolist() == [sample_delay(delay, ref) for _ in range(m)]
        assert rng.random() == ref.random()  # both streams in the same place

    def test_nonfinite_time_in_block_rejected(self):
        with pytest.raises(ValueError):
            read_local_time(ClockParams(1.0), np.array([1.0, math.nan]),
                            np.random.default_rng(0))
