"""Tests for non-linear / complexity features."""

import warnings

import numpy as np
import pytest

from repro.signals import (
    approximate_entropy,
    hjorth_parameters,
    poincare_descriptors,
    sample_entropy,
    zero_crossing_rate,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestSampleEntropy:
    def test_regular_signal_lower_than_noise(self, rng):
        t = np.linspace(0, 10 * np.pi, 300)
        regular = np.sin(t)
        noise = rng.normal(size=300)
        assert sample_entropy(regular) < sample_entropy(noise)

    def test_flat_signal_zero(self):
        assert sample_entropy(np.full(50, 2.0)) == 0.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            sample_entropy(np.ones(3))

    def test_finite_for_random(self, rng):
        value = sample_entropy(rng.normal(size=100))
        assert np.isfinite(value)
        assert value > 0

    def test_custom_tolerance_monotonic(self, rng):
        """Larger tolerance -> more matches -> lower entropy."""
        x = rng.normal(size=200)
        tight = sample_entropy(x, r=0.1 * x.std())
        loose = sample_entropy(x, r=0.5 * x.std())
        assert loose <= tight


class TestApproximateEntropy:
    def test_regular_lower_than_noise(self, rng):
        t = np.linspace(0, 10 * np.pi, 300)
        assert approximate_entropy(np.sin(t)) < approximate_entropy(
            rng.normal(size=300)
        )

    def test_flat_signal_zero(self):
        assert approximate_entropy(np.full(50, 1.0)) == 0.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            approximate_entropy(np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_nan_without_warning(self, rng, bad):
        x = rng.normal(size=60)
        x[10] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(approximate_entropy(x))


class TestPoincare:
    def test_constant_intervals_zero_sd(self):
        desc = poincare_descriptors(np.full(20, 0.8))
        assert desc["sd1"] == pytest.approx(0.0, abs=1e-12)
        assert desc["sd2"] == pytest.approx(0.0, abs=1e-12)

    def test_alternating_intervals_sd1_dominant(self):
        """A perfectly alternating series is all short-term variability."""
        intervals = np.tile([0.7, 0.9], 20)
        desc = poincare_descriptors(intervals)
        assert desc["sd1"] > 5 * desc["sd2"]

    def test_trending_intervals_sd2_dominant(self):
        intervals = np.linspace(0.6, 1.0, 40)
        desc = poincare_descriptors(intervals)
        assert desc["sd2"] > 5 * desc["sd1"]

    def test_ellipse_area_formula(self, rng):
        intervals = 0.8 + 0.05 * rng.normal(size=50)
        desc = poincare_descriptors(intervals)
        assert desc["ellipse_area"] == pytest.approx(
            np.pi * desc["sd1"] * desc["sd2"]
        )

    def test_short_series_returns_zeros(self):
        desc = poincare_descriptors(np.array([0.8, 0.9]))
        assert desc == {
            "sd1": 0.0,
            "sd2": 0.0,
            "sd1_sd2_ratio": 0.0,
            "ellipse_area": 0.0,
        }


class TestHjorth:
    def test_activity_is_variance(self, rng):
        x = rng.normal(0, 2.0, size=500)
        activity, _, _ = hjorth_parameters(x)
        assert activity == pytest.approx(x.var())

    def test_mobility_increases_with_frequency(self):
        t = np.linspace(0, 2 * np.pi, 1000)
        _, slow_mob, _ = hjorth_parameters(np.sin(5 * t))
        _, fast_mob, _ = hjorth_parameters(np.sin(50 * t))
        assert fast_mob > slow_mob

    def test_flat_signal_safe(self):
        activity, mobility, complexity = hjorth_parameters(np.full(10, 3.0))
        assert activity == 0.0
        assert mobility == 0.0
        assert complexity == 0.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            hjorth_parameters(np.ones(2))


class TestZeroCrossingRate:
    def test_alternating_signal_max_rate(self):
        x = np.tile([1.0, -1.0], 50)
        assert zero_crossing_rate(x) == pytest.approx(1.0)

    def test_constant_zero_rate(self):
        assert zero_crossing_rate(np.full(50, 5.0)) == 0.0

    def test_sine_rate_matches_frequency(self):
        fs = 100.0
        t = np.arange(0, 10, 1 / fs)
        x = np.sin(2 * np.pi * 3.0 * t)
        # 3 Hz sine crosses zero 6 times per second = 0.06 per sample.
        assert zero_crossing_rate(x) == pytest.approx(0.06, abs=0.005)

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            zero_crossing_rate(np.array([1.0]))
