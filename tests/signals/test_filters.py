"""Tests for signal filtering / conditioning primitives."""

import numpy as np
import pytest

from repro.signals import filters


class TestDetrendAndTrend:
    def test_linear_trend_recovers_slope(self):
        fs = 10.0
        t = np.arange(0, 10, 1 / fs)
        x = 1.0 + 0.3 * t
        assert filters.linear_trend(x, fs) == pytest.approx(0.3, rel=1e-6)

    def test_linear_trend_zero_for_constant(self):
        assert filters.linear_trend(np.full(40, 7.0), 4.0) == pytest.approx(0.0, abs=1e-10)

    def test_linear_trend_rejects_2d(self):
        with pytest.raises(ValueError, match="1D"):
            filters.linear_trend(np.ones((3, 3)))


class TestButterworth:
    def test_lowpass_removes_high_frequency(self):
        fs = 100.0
        t = np.arange(0, 5, 1 / fs)
        low = np.sin(2 * np.pi * 1.0 * t)
        high = np.sin(2 * np.pi * 30.0 * t)
        filtered = filters.butter_lowpass(low + high, 5.0, fs)
        # The 30 Hz component should be crushed; correlation with the
        # 1 Hz component should dominate.
        assert np.corrcoef(filtered, low)[0, 1] > 0.99
        assert np.std(filtered - low) < 0.1

    def test_bandpass_keeps_band(self):
        fs = 64.0
        t = np.arange(0, 10, 1 / fs)
        cardiac = np.sin(2 * np.pi * 1.2 * t)
        drift = 2.0 + 0.2 * t
        filtered = filters.butter_bandpass(cardiac + drift, 0.5, 8.0, fs)
        assert np.corrcoef(filtered, cardiac)[0, 1] > 0.98

    def test_bandpass_invalid_bounds(self):
        with pytest.raises(ValueError, match="below"):
            filters.butter_bandpass(np.ones(100), 5.0, 1.0, 64.0)

    def test_bandpass_nonpositive_low(self):
        with pytest.raises(ValueError, match="positive"):
            filters.butter_bandpass(np.ones(100), 0.0, 1.0, 64.0)

    def test_cutoff_clamped_below_nyquist(self):
        # Request a cutoff above Nyquist; should not raise.
        x = np.sin(np.linspace(0, 20, 200))
        out = filters.butter_lowpass(x, 1000.0, fs=10.0)
        assert out.shape == x.shape
