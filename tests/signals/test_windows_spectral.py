"""Tests for windowing and spectral analysis."""

import numpy as np
import pytest

from repro.signals import (
    band_power,
    hrv_band_powers,
    num_windows,
    peak_frequency,
    sliding_windows,
    spectral_centroid,
    spectral_entropy,
    spectral_spread,
    total_power,
    welch_psd,
)


class TestWindows:
    def test_num_windows_exact(self):
        assert num_windows(10, 5, 5) == 2
        assert num_windows(10, 5, 2) == 3
        assert num_windows(4, 5, 1) == 0

    def test_num_windows_invalid(self):
        with pytest.raises(ValueError):
            num_windows(10, 0, 1)

    def test_sliding_windows_content(self):
        x = np.arange(10)
        w = sliding_windows(x, 4, 3)
        np.testing.assert_array_equal(w, [[0, 1, 2, 3], [3, 4, 5, 6], [6, 7, 8, 9]])

    def test_sliding_windows_empty(self):
        w = sliding_windows(np.arange(3), 5, 1)
        assert w.shape == (0, 5)

    def test_sliding_windows_is_copy(self):
        x = np.arange(10, dtype=float)
        w = sliding_windows(x, 4, 4)
        w[0, 0] = 99.0
        assert x[0] == 0.0

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1D"):
            sliding_windows(np.zeros((3, 3)), 2, 1)


class TestWelchPSD:
    def test_peak_at_signal_frequency(self):
        fs = 100.0
        t = np.arange(0, 10, 1 / fs)
        x = np.sin(2 * np.pi * 7.0 * t)
        freqs, psd = welch_psd(x, fs)
        assert peak_frequency(freqs, psd) == pytest.approx(7.0, abs=0.5)

    def test_parseval_total_power(self):
        # PSD integral approximates the variance for a zero-mean sine.
        fs = 100.0
        t = np.arange(0, 20, 1 / fs)
        x = np.sin(2 * np.pi * 5.0 * t)
        freqs, psd = welch_psd(x, fs, nperseg=512)
        assert total_power(freqs, psd) == pytest.approx(x.var(), rel=0.1)

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            welch_psd(np.ones(4), 10.0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1D"):
            welch_psd(np.zeros((4, 4)), 10.0)


class TestBandPower:
    def test_band_captures_component(self):
        fs = 100.0
        t = np.arange(0, 20, 1 / fs)
        x = np.sin(2 * np.pi * 3.0 * t) + np.sin(2 * np.pi * 20.0 * t)
        freqs, psd = welch_psd(x, fs, nperseg=1024)
        low = band_power(freqs, psd, 1.0, 5.0)
        high = band_power(freqs, psd, 15.0, 25.0)
        quiet = band_power(freqs, psd, 30.0, 40.0)
        assert low > 10 * quiet
        assert high > 10 * quiet

    def test_inverted_bounds_raise(self):
        with pytest.raises(ValueError, match="inverted"):
            band_power(np.arange(10.0), np.ones(10), 5.0, 1.0)

    def test_empty_band_returns_zero(self):
        freqs = np.array([0.0, 1.0, 2.0])
        assert band_power(freqs, np.ones(3), 5.0, 6.0) == 0.0


class TestSpectralShape:
    def test_centroid_of_single_tone(self):
        fs = 100.0
        t = np.arange(0, 20, 1 / fs)
        x = np.sin(2 * np.pi * 10.0 * t)
        freqs, psd = welch_psd(x, fs, nperseg=1024)
        assert spectral_centroid(freqs, psd) == pytest.approx(10.0, abs=1.0)

    def test_spread_narrow_vs_broad(self):
        rng = np.random.default_rng(0)
        fs = 100.0
        t = np.arange(0, 20, 1 / fs)
        tone = np.sin(2 * np.pi * 10.0 * t)
        noise = rng.normal(size=t.size)
        f1, p1 = welch_psd(tone, fs)
        f2, p2 = welch_psd(noise, fs)
        assert spectral_spread(f1, p1) < spectral_spread(f2, p2)

    def test_entropy_bounds(self):
        rng = np.random.default_rng(1)
        fs = 100.0
        t = np.arange(0, 10, 1 / fs)
        tone = np.sin(2 * np.pi * 10.0 * t)
        noise = rng.normal(size=t.size)
        _, p_tone = welch_psd(tone, fs)
        _, p_noise = welch_psd(noise, fs)
        h_tone = spectral_entropy(p_tone)
        h_noise = spectral_entropy(p_noise)
        assert 0.0 <= h_tone < h_noise <= 1.0

    def test_entropy_zero_psd(self):
        assert spectral_entropy(np.zeros(16)) == 0.0


class TestHRVBands:
    def test_lf_dominant_series(self):
        fs = 4.0
        t = np.arange(0, 300, 1 / fs)
        series = 0.05 * np.sin(2 * np.pi * 0.1 * t)  # 0.1 Hz = LF
        freqs, psd = welch_psd(series, fs, nperseg=512)
        bands = hrv_band_powers(freqs, psd)
        assert bands["lf"] > bands["hf"]
        assert bands["lf_norm"] > 0.8
        assert bands["lf_hf_ratio"] > 4.0

    def test_hf_dominant_series(self):
        fs = 4.0
        t = np.arange(0, 300, 1 / fs)
        series = 0.05 * np.sin(2 * np.pi * 0.3 * t)  # 0.3 Hz = HF
        freqs, psd = welch_psd(series, fs, nperseg=512)
        bands = hrv_band_powers(freqs, psd)
        assert bands["hf"] > bands["lf"]
        assert bands["hf_norm"] > 0.8

    def test_norms_sum_to_one(self):
        rng = np.random.default_rng(2)
        freqs, psd = welch_psd(rng.normal(size=512), 4.0)
        bands = hrv_band_powers(freqs, psd)
        assert bands["lf_norm"] + bands["hf_norm"] == pytest.approx(1.0)
