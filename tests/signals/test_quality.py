"""Tests for signal quality assessment + artifact failure injection."""

import numpy as np
import pytest

from repro.signals import extract_bvp_features
from repro.signals.quality import (
    AggregateQualityReport,
    assess_quality,
    clipping_fraction,
    finite_fraction,
    flatline_fraction,
    inject_clipping,
    inject_dropout,
    inject_motion_spikes,
    quality_report,
    spike_score,
)


@pytest.fixture
def rng():
    return np.random.default_rng(71)


@pytest.fixture
def clean_bvp(rng):
    fs = 64.0
    t = np.arange(0, 30, 1 / fs)
    return np.sin(2 * np.pi * 1.2 * t) + 0.02 * rng.normal(size=t.size)


class TestInjectors:
    def test_motion_spikes_change_signal(self, rng, clean_bvp):
        corrupted = inject_motion_spikes(clean_bvp, rng, 30.0, 64.0)
        assert corrupted.shape == clean_bvp.shape
        assert np.abs(corrupted - clean_bvp).max() > 3 * clean_bvp.std()

    def test_motion_spikes_zero_rate_noop(self, rng, clean_bvp):
        np.testing.assert_array_equal(
            inject_motion_spikes(clean_bvp, rng, 0.0, 64.0), clean_bvp
        )

    def test_motion_spikes_original_untouched(self, rng, clean_bvp):
        before = clean_bvp.copy()
        inject_motion_spikes(clean_bvp, rng, 30.0, 64.0)
        np.testing.assert_array_equal(clean_bvp, before)

    def test_dropout_creates_flatline(self, rng, clean_bvp):
        corrupted = inject_dropout(clean_bvp, rng, 0.3, 64.0)
        assert flatline_fraction(corrupted) >= 0.25

    def test_dropout_zero_fraction_noop(self, rng, clean_bvp):
        np.testing.assert_array_equal(
            inject_dropout(clean_bvp, rng, 0.0, 64.0), clean_bvp
        )

    def test_dropout_invalid_fraction(self, rng, clean_bvp):
        with pytest.raises(ValueError, match="fraction"):
            inject_dropout(clean_bvp, rng, 1.5, 64.0)

    def test_clipping_bounds_signal(self, rng, clean_bvp):
        corrupted = inject_clipping(clean_bvp, rng, 0.5)
        assert corrupted.max() - corrupted.min() < clean_bvp.max() - clean_bvp.min()

    def test_clipping_invalid_fraction(self, rng, clean_bvp):
        with pytest.raises(ValueError, match="fraction_of_range"):
            inject_clipping(clean_bvp, rng, 0.0)

    def test_clipping_deterministic_per_seed(self, clean_bvp):
        a = inject_clipping(clean_bvp, np.random.default_rng(5), 0.5)
        b = inject_clipping(clean_bvp, np.random.default_rng(5), 0.5)
        np.testing.assert_array_equal(a, b)


class TestQualityIndices:
    def test_clean_signal_scores_high(self, clean_bvp):
        report = assess_quality(clean_bvp)
        assert report.overall > 0.8
        assert report.acceptable

    def test_flatline_detected(self, rng, clean_bvp):
        corrupted = inject_dropout(clean_bvp, rng, 0.5, 64.0)
        report = assess_quality(corrupted)
        assert report.flatline < 0.5
        assert not report.acceptable

    def test_clipping_detected(self, rng, clean_bvp):
        corrupted = inject_clipping(clean_bvp, rng, 0.3)
        assert clipping_fraction(corrupted) > 0.1
        assert assess_quality(corrupted).clipping < 0.8

    def test_spikes_detected(self, rng, clean_bvp):
        corrupted = inject_motion_spikes(clean_bvp, rng, 60.0, 64.0)
        assert spike_score(corrupted) > spike_score(clean_bvp)

    def test_constant_signal_fully_clipped(self):
        report = assess_quality(np.full(100, 3.0))
        assert report.clipping == 0.0  # quality score floor
        assert not report.acceptable

    def test_short_signals_raise(self):
        with pytest.raises(ValueError, match="too short"):
            flatline_fraction(np.array([1.0]))
        with pytest.raises(ValueError, match="too short"):
            spike_score(np.array([1.0, 2.0]))

    def test_finite_fraction(self):
        x = np.array([1.0, np.nan, 2.0, np.inf])
        assert finite_fraction(x) == 0.5
        with pytest.raises(ValueError, match="too short"):
            finite_fraction(np.array([]))

    def test_nan_burst_never_crashes_assessment(self, rng, clean_bvp):
        corrupted = clean_bvp.copy()
        idx = rng.choice(corrupted.size, size=corrupted.size // 4, replace=False)
        corrupted[idx] = np.nan
        report = assess_quality(corrupted)
        assert np.isfinite(report.overall)
        assert report.finite < 1.0
        assert not report.acceptable

    def test_all_nan_scores_zero(self):
        report = assess_quality(np.full(100, np.nan))
        assert report.overall == 0.0
        assert report.finite == 0.0


class TestQualityReportAggregate:
    FS = {"bvp": 64.0, "gsr": 4.0, "skt": 4.0}

    def window(self, rng, seconds=8.0):
        return {
            name: np.sin(2 * np.pi * 1.2 * np.arange(0, seconds, 1 / fs))
            + 0.02 * rng.normal(size=int(seconds * fs))
            for name, fs in self.FS.items()
        }

    def test_clean_window_accepted(self, rng):
        report = quality_report(self.window(rng), self.FS)
        assert report.accept
        assert report.failing == () and report.skewed == ()
        assert set(report.channels) == {"bvp", "gsr", "skt"}

    def test_dead_channel_rejected(self, rng):
        window = self.window(rng)
        window["gsr"] = np.zeros_like(window["gsr"])
        report = quality_report(window, self.FS)
        assert not report.accept
        assert "gsr" in report.failing

    def test_sample_loss_flagged_as_skew(self, rng):
        window = self.window(rng)
        window["bvp"] = window["bvp"][: int(0.8 * window["bvp"].size)]
        report = quality_report(window, self.FS)
        assert "bvp" in report.skewed
        assert not report.accept

    def test_scalar_fs_accepted(self, rng):
        signals = {"a": rng.normal(size=256), "b": rng.normal(size=256)}
        report = quality_report(signals, 32.0)
        assert isinstance(report, AggregateQualityReport)
        assert report.skewed == ()

    def test_to_dict_machine_readable(self, rng):
        payload = quality_report(self.window(rng), self.FS).to_dict()
        assert payload["accept"] is True
        assert set(payload["channels"]) == {"bvp", "gsr", "skt"}
        assert "finite" in payload["channels"]["bvp"]

    def test_empty_window_raises(self):
        with pytest.raises(ValueError, match="at least one channel"):
            quality_report({}, 32.0)

    def test_tiny_channel_scores_zero(self, rng):
        window = self.window(rng)
        window["skt"] = window["skt"][:2]
        report = quality_report(window, self.FS)
        assert report.channels["skt"].overall == 0.0
        assert "skt" in report.failing


class TestFailureInjectionEndToEnd:
    """The pipeline must degrade gracefully, never crash, on bad signals."""

    def test_features_finite_under_all_artifacts(self, rng, clean_bvp):
        fs = 64.0
        corruptions = [
            inject_motion_spikes(clean_bvp, rng, 60.0, fs),
            inject_dropout(clean_bvp, rng, 0.6, fs),
            inject_clipping(clean_bvp, rng, 0.2),
            # Slow baseline wander, ten times the signal's spread.
            clean_bvp
            + 10.0
            * clean_bvp.std()
            * np.sin(2 * np.pi * 0.05 * np.arange(clean_bvp.size) / fs),
        ]
        for corrupted in corruptions:
            features = extract_bvp_features(corrupted, fs)
            assert all(np.isfinite(v) for v in features.values())

    def test_fully_dead_sensor_features_finite(self):
        features = extract_bvp_features(np.zeros(64 * 10), 64.0)
        assert all(np.isfinite(v) for v in features.values())

    def test_artifacts_perturb_features(self, rng, clean_bvp):
        """Artifacts must actually move the features (sanity: the
        quality gate exists because corruption changes the input)."""
        clean = extract_bvp_features(clean_bvp, 64.0)
        corrupted = extract_bvp_features(
            inject_motion_spikes(clean_bvp, rng, 60.0, 64.0), 64.0
        )
        diffs = [abs(clean[k] - corrupted[k]) for k in clean]
        assert max(diffs) > 0
