"""Tests for the seeded fault plans and their registry."""

import numpy as np
import pytest

from repro.resilience.faults import (
    FAULT_PLANS,
    ChannelDropout,
    CheckpointCorruption,
    ClockSkew,
    FaultPlan,
    FeatureNaN,
    Flatline,
    MotionBurst,
    NaNBurst,
    SampleLoss,
    ValueClipping,
    get_fault_plan,
    register_fault_plan,
    registered_fault_plans,
)
from repro.signals.feature_map import FeatureMap
from repro.signals.quality import flatline_fraction

from .conftest import FS


@pytest.fixture
def signals():
    rng = np.random.default_rng(0)
    return {
        "bvp": np.sin(2 * np.pi * 1.2 * np.arange(0, 8, 1 / 32.0))
        + 0.02 * rng.normal(size=256),
        "gsr": rng.normal(size=32).cumsum() * 0.01 + 2.0,
        "skt": 33.0 + 0.01 * rng.normal(size=32),
    }


class TestRegistry:
    def test_builtin_plans_registered(self):
        expected = {
            "gsr_dead",
            "gsr_dropout",
            "skt_flatline",
            "bvp_motion",
            "bvp_nan_burst",
            "multi_channel_dropout",
            "sample_loss",
            "clock_skew",
            "feature_nan",
            "checkpoint_truncated",
            "checkpoint_bitflip",
            "checkpoint_garbage",
        }
        assert expected <= set(FAULT_PLANS)

    def test_registered_fault_plans_sorted(self):
        names = [p.name for p in registered_fault_plans()]
        assert names == sorted(names)

    def test_get_unknown_plan_raises(self):
        with pytest.raises(KeyError, match="unknown fault plan"):
            get_fault_plan("does_not_exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_fault_plan(FaultPlan("gsr_dead", (), seed=0))

    def test_every_plan_has_description(self):
        assert all(p.description for p in registered_fault_plans())

    def test_plan_needs_name(self):
        with pytest.raises(ValueError, match="name"):
            FaultPlan("", ())


class TestSignalFaults:
    def test_channel_dropout_flatlines(self, signals):
        plan = FaultPlan("t", (ChannelDropout("gsr", fraction=0.6),), seed=1)
        out = plan.apply_to_signals(signals, FS)
        assert flatline_fraction(out["gsr"]) >= 0.5
        np.testing.assert_array_equal(out["bvp"], signals["bvp"])

    def test_flatline_pins_every_sample(self, signals):
        plan = FaultPlan("t", (Flatline("skt", value=30.0),), seed=1)
        out = plan.apply_to_signals(signals, FS)
        assert np.all(out["skt"] == 30.0)

    def test_nan_burst_injects_nans(self, signals):
        plan = FaultPlan("t", (NaNBurst("bvp", fraction=0.4),), seed=1)
        out = plan.apply_to_signals(signals, FS)
        nan_frac = np.mean(~np.isfinite(out["bvp"]))
        assert 0.3 < nan_frac < 0.5

    def test_sample_loss_shortens_channel(self, signals):
        plan = FaultPlan("t", (SampleLoss("bvp", fraction=0.2),), seed=1)
        out = plan.apply_to_signals(signals, FS)
        assert out["bvp"].size < signals["bvp"].size

    def test_clock_skew_resamples(self, signals):
        plan = FaultPlan("t", (ClockSkew("gsr", factor=0.88),), seed=1)
        out = plan.apply_to_signals(signals, FS)
        assert out["gsr"].size == int(round(0.88 * signals["gsr"].size))

    def test_clipping_and_motion_change_signal(self, signals):
        plan = FaultPlan(
            "t",
            (MotionBurst("bvp", rate_per_minute=60.0), ValueClipping("bvp", 0.5)),
            seed=1,
        )
        out = plan.apply_to_signals(signals, FS)
        assert not np.array_equal(out["bvp"], signals["bvp"])

    def test_missing_channel_raises(self, signals):
        plan = FaultPlan("t", (Flatline("emg"),), seed=1)
        with pytest.raises(ValueError, match="emg"):
            plan.apply_to_signals(signals, FS)

    def test_originals_never_mutated(self, signals):
        before = {k: v.copy() for k, v in signals.items()}
        plan = get_fault_plan("multi_channel_dropout")
        plan.apply_to_signals(signals, FS)
        for name in signals:
            np.testing.assert_array_equal(signals[name], before[name])

    @pytest.mark.parametrize(
        "plan",
        [
            p
            for p in registered_fault_plans()
            if not p.targets_checkpoint
        ],
        ids=lambda p: p.name,
    )
    def test_same_seed_identical_corruption(self, plan, signals):
        """The chaos gate's determinism requirement at the fault level."""
        if plan.targets_feature_map:
            fmap = FeatureMap(
                np.arange(24.0).reshape(6, 4), label=0, subject_id=0
            )
            a = plan.apply_to_feature_map(fmap)
            b = plan.apply_to_feature_map(fmap)
            np.testing.assert_array_equal(a.values, b.values)
        else:
            a = plan.apply_to_signals(signals, FS)
            b = plan.apply_to_signals(signals, FS)
            for name in a:
                np.testing.assert_array_equal(a[name], b[name])


class TestFeatureMapFaults:
    def test_feature_nan_corrupts_cells_not_original(self):
        fmap = FeatureMap(np.ones((10, 8)), label=1, subject_id=3)
        plan = FaultPlan("t", (FeatureNaN(fraction=0.3),), seed=2)
        out = plan.apply_to_feature_map(fmap)
        assert np.isnan(out.values).any()
        assert not np.isnan(fmap.values).any()
        assert out.label == 1 and out.subject_id == 3

    def test_invalid_fraction(self):
        fmap = FeatureMap(np.ones((4, 4)), label=0, subject_id=0)
        with pytest.raises(ValueError, match="fraction"):
            FeatureNaN(fraction=0.0).apply_to_feature_map(
                fmap, np.random.default_rng(0)
            )


class TestCheckpointFaults:
    def _file(self, tmp_path, n=4096):
        path = tmp_path / "ckpt.npz"
        path.write_bytes(bytes(np.random.default_rng(0).integers(0, 256, n, dtype=np.uint8)))
        return path

    def test_truncate_shrinks_file(self, tmp_path):
        path = self._file(tmp_path)
        CheckpointCorruption(mode="truncate", keep_fraction=0.5).apply_to_checkpoint(
            path, np.random.default_rng(1)
        )
        assert path.stat().st_size == 2048

    def test_bitflip_changes_content_keeps_size(self, tmp_path):
        path = self._file(tmp_path)
        before = path.read_bytes()
        CheckpointCorruption(mode="bitflip", n_flips=8).apply_to_checkpoint(
            path, np.random.default_rng(1)
        )
        after = path.read_bytes()
        assert len(after) == len(before) and after != before

    def test_garbage_replaces_content(self, tmp_path):
        path = self._file(tmp_path)
        before = path.read_bytes()
        CheckpointCorruption(mode="garbage").apply_to_checkpoint(
            path, np.random.default_rng(1)
        )
        assert path.read_bytes() != before

    def test_unknown_mode_raises(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            CheckpointCorruption(mode="melt").apply_to_checkpoint(
                self._file(tmp_path), np.random.default_rng(1)
            )

    def test_plan_surface_flags(self):
        assert get_fault_plan("checkpoint_bitflip").targets_checkpoint
        assert get_fault_plan("feature_nan").targets_feature_map
        assert not get_fault_plan("gsr_dead").targets_checkpoint
