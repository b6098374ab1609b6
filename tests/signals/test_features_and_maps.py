"""Tests for the 123-feature extractor and 2D feature maps."""

import numpy as np
import pytest

from repro.signals import (
    ALL_FEATURE_NAMES,
    NUM_FEATURES,
    FeatureExtractor,
    FeatureMap,
    FeatureNormalizer,
    SensorRates,
    build_feature_map,
    maps_to_arrays,
    subject_signature,
)


def synth_channels(seconds=60.0, fs_bvp=64.0, fs_gsr=4.0, seed=0):
    rng = np.random.default_rng(seed)
    t_b = np.arange(0, seconds, 1 / fs_bvp)
    bvp = np.maximum(np.sin(2 * np.pi * 1.2 * t_b), 0) ** 2 + 0.02 * rng.normal(
        size=t_b.size
    )
    t_g = np.arange(0, seconds, 1 / fs_gsr)
    gsr = 2.0 + 0.002 * t_g + 0.01 * rng.normal(size=t_g.size)
    skt = 33.0 + 0.005 * np.sin(2 * np.pi * 0.01 * t_g) + 0.01 * rng.normal(
        size=t_g.size
    )
    return bvp, gsr, skt


class TestFeatureInventory:
    def test_123_features_total(self):
        assert NUM_FEATURES == 123
        assert len(ALL_FEATURE_NAMES) == 123
        assert len(set(ALL_FEATURE_NAMES)) == 123

    def test_composition_84_34_5(self):
        bvp = [n for n in ALL_FEATURE_NAMES if not n.startswith(("gsr", "scr", "skt"))]
        gsr = [n for n in ALL_FEATURE_NAMES if n.startswith(("gsr", "scr"))]
        skt = [n for n in ALL_FEATURE_NAMES if n.startswith("skt")]
        assert len(bvp) == 84
        assert len(gsr) == 34
        assert len(skt) == 5


class TestFeatureExtractor:
    def test_window_vector_shape(self):
        fe = FeatureExtractor(window_seconds=20.0)
        bvp, gsr, skt = synth_channels(20.0)
        vec = fe.extract_window(bvp, gsr, skt)
        assert vec.shape == (123,)
        assert np.isfinite(vec).all()

    def test_recording_windows(self):
        fe = FeatureExtractor(window_seconds=20.0)
        bvp, gsr, skt = synth_channels(60.0)
        rec = fe.extract_recording(bvp, gsr, skt)
        assert rec.shape == (3, 123)

    def test_overlapping_step(self):
        fe = FeatureExtractor(window_seconds=20.0, step_seconds=10.0)
        bvp, gsr, skt = synth_channels(60.0)
        rec = fe.extract_recording(bvp, gsr, skt)
        assert rec.shape[0] == 5  # (60-20)/10 + 1

    def test_joint_window_grid_counts(self):
        # 20 s at 64 Hz and 4 Hz cut into 4 s windows: 256 and 16 samples,
        # five windows covering the same time span in every channel.
        fe = FeatureExtractor(window_seconds=4.0)
        assert fe.window_counts(1280, 80, 80) == 5
        bvp, gsr, skt = synth_channels(20.0)
        assert fe.extract_recording(bvp, gsr, skt).shape == (5, 123)

    def test_window_count_is_channel_minimum(self):
        fe = FeatureExtractor(window_seconds=4.0)
        # GSR holds 50 of the 80 samples the others have: 3 windows.
        assert fe.window_counts(1280, 50, 80) == 3
        bvp, gsr, skt = synth_channels(20.0)
        assert fe.extract_recording(bvp, gsr[:50], skt).shape == (3, 123)

    def test_short_recording_empty(self):
        fe = FeatureExtractor(window_seconds=30.0)
        bvp, gsr, skt = synth_channels(10.0)
        rec = fe.extract_recording(bvp, gsr, skt)
        assert rec.shape == (0, 123)

    def test_invalid_window_seconds(self):
        with pytest.raises(ValueError, match="window_seconds"):
            FeatureExtractor(window_seconds=0.0)

    def test_invalid_rates(self):
        with pytest.raises(ValueError, match="rate"):
            FeatureExtractor(rates=SensorRates(bvp=-1.0))


class TestFeatureMap:
    def test_build_transposes(self):
        vectors = np.arange(12, dtype=float).reshape(4, 3)  # (W=4, F=3)
        fmap = build_feature_map(vectors, label=1, subject_id=7)
        assert fmap.values.shape == (3, 4)
        assert fmap.num_features == 3
        assert fmap.num_windows == 4
        np.testing.assert_array_equal(fmap.values, vectors.T)

    def test_nn_input_layout(self):
        fmap = FeatureMap(np.ones((5, 2)), label=0, subject_id=1)
        assert fmap.as_nn_input().shape == (1, 5, 2)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2D"):
            FeatureMap(np.ones(5), label=0, subject_id=0)

    def test_maps_to_arrays(self):
        maps = [FeatureMap(np.ones((4, 3)), label=i % 2, subject_id=i) for i in range(6)]
        x, y = maps_to_arrays(maps)
        assert x.shape == (6, 1, 4, 3)
        np.testing.assert_array_equal(y, [0, 1, 0, 1, 0, 1])

    def test_maps_to_arrays_shape_mismatch_raises(self):
        maps = [
            FeatureMap(np.ones((4, 3)), 0, 0),
            FeatureMap(np.ones((4, 5)), 1, 1),
        ]
        with pytest.raises(ValueError, match="inconsistent"):
            maps_to_arrays(maps)

    def test_maps_to_arrays_empty(self):
        x, y = maps_to_arrays([])
        assert x.shape[0] == 0
        assert y.shape == (0,)

    def test_subject_signature_is_mean(self):
        rng = np.random.default_rng(0)
        maps = [FeatureMap(rng.normal(size=(4, 3)), 0, 0) for _ in range(5)]
        sig = subject_signature(maps)
        expected = np.mean([m.values.mean(axis=1) for m in maps], axis=0)
        np.testing.assert_allclose(sig, expected)

    def test_subject_signature_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            subject_signature([])


class TestFeatureNormalizer:
    def _maps(self, rng, n=6, f=4, w=3, loc=10.0, scale=5.0):
        return [
            FeatureMap(rng.normal(loc, scale, size=(f, w)), label=0, subject_id=i)
            for i in range(n)
        ]

    def test_normalized_statistics(self):
        rng = np.random.default_rng(1)
        maps = self._maps(rng, n=20)
        normalizer = FeatureNormalizer().fit(maps)
        normalized = normalizer.transform_all(maps)
        stacked = np.concatenate([m.values for m in normalized], axis=1)
        np.testing.assert_allclose(stacked.mean(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(stacked.std(axis=1), 1.0, atol=1e-6)

    def test_transform_preserves_label_and_subject(self):
        rng = np.random.default_rng(2)
        maps = self._maps(rng)
        fmap = FeatureMap(rng.normal(size=(4, 3)), label=1, subject_id=42)
        normalizer = FeatureNormalizer().fit(maps)
        out = normalizer.transform(fmap)
        assert out.label == 1
        assert out.subject_id == 42

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="fitted"):
            FeatureNormalizer().transform(FeatureMap(np.ones((2, 2)), 0, 0))

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            FeatureNormalizer().fit([])

    def test_constant_feature_no_blowup(self):
        maps = [FeatureMap(np.full((3, 2), 7.0), 0, i) for i in range(3)]
        normalized = FeatureNormalizer().fit_transform(maps)
        assert all(np.isfinite(m.values).all() for m in normalized)
