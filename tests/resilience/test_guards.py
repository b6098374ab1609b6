"""Tests for the runtime guards: feature screens, quality gate, checkpoint."""

import numpy as np
import pytest

from repro import nn
from repro.errors import CheckpointError
from repro.resilience.guards import (
    CheckpointVerification,
    impute_features,
    screen_features,
    verify_checkpoint,
)
from repro.signals.quality import quality_report

from .conftest import FS


class TestScreenFeatures:
    def test_clean_vector(self):
        report = screen_features(np.arange(5.0))
        assert report.finite and report.bad_indices == ()
        assert report.bad_fraction == 0.0

    def test_locates_bad_entries(self):
        v = np.array([1.0, np.nan, 2.0, np.inf, -np.inf])
        report = screen_features(v)
        assert not report.finite
        assert report.bad_indices == (1, 3, 4)
        assert report.bad_fraction == pytest.approx(0.6)


class TestImputeFeatures:
    def test_fill_value_used_without_fallback(self):
        v = np.array([1.0, np.nan, 3.0])
        out = impute_features(v, [1], fill=-7.0)
        np.testing.assert_array_equal(out, [1.0, -7.0, 3.0])

    def test_fallback_values_used(self):
        v = np.array([1.0, np.nan, np.nan])
        fallback = np.array([9.0, 8.0, 7.0])
        out = impute_features(v, [1, 2], fallback=fallback)
        np.testing.assert_array_equal(out, [1.0, 8.0, 7.0])

    def test_non_finite_fallback_falls_through_to_fill(self):
        v = np.array([1.0, np.nan])
        fallback = np.array([0.0, np.nan])
        out = impute_features(v, [1], fallback=fallback, fill=0.5)
        np.testing.assert_array_equal(out, [1.0, 0.5])
        assert np.isfinite(out).all()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            impute_features(np.zeros(3), [0], fallback=np.zeros(4))

    def test_no_bad_indices_is_identity(self):
        v = np.arange(4.0)
        np.testing.assert_array_equal(impute_features(v, []), v)


class TestQualityGate:
    def _window(self, dead_gsr=False):
        rng = np.random.default_rng(3)
        window = {
            "bvp": np.sin(2 * np.pi * 1.2 * np.arange(0, 8, 1 / 32.0))
            + 0.02 * rng.normal(size=256),
            "gsr": rng.normal(size=32).cumsum() * 0.01 + 2.0,
            "skt": 33.0 + 0.01 * rng.normal(size=32),
        }
        if dead_gsr:
            window["gsr"] = np.zeros(32)
        return window

    def test_clean_window_accepted(self):
        assert quality_report(self._window(), FS).accept

    def test_dead_channel_rejected(self):
        report = quality_report(self._window(dead_gsr=True), FS)
        assert not report.accept and "gsr" in report.failing


class TestVerifyCheckpoint:
    @pytest.fixture
    def saved(self, tmp_path):
        model = nn.Sequential(
            [
                nn.Conv2D(4, 3, padding="same"),
                nn.ReLU(),
                nn.MaxPool2D(2),
                nn.ToSequence(),
                nn.LSTM(8),
                nn.Dense(2),
            ],
            seed=0,
        )
        model.build((1, 12, 8))
        return nn.save_model(model, tmp_path / "ckpt.npz")

    def test_good_checkpoint_verifies(self, saved):
        result = verify_checkpoint(saved)
        assert isinstance(result, CheckpointVerification)
        assert result.checksum_present
        assert result.num_layers == 6
        assert result.num_params > 0
        assert result.output_shape is None

    def test_graph_validated_against_input_shape(self, saved):
        result = verify_checkpoint(saved, input_shape=(1, 12, 8))
        assert result.output_shape == (2,)

    def test_incompatible_input_shape_raises(self, saved):
        with pytest.raises(CheckpointError, match="graph validation"):
            verify_checkpoint(saved, input_shape=(1, 1, 1))

    def test_corrupt_file_raises(self, saved):
        saved.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match=str(saved)):
            verify_checkpoint(saved)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            verify_checkpoint(tmp_path / "ghost.npz")
