"""Tests for the MAC profiler and device cost models."""

import pytest

from repro import nn
from repro.core import build_cnn_lstm
from repro.edge import (
    ALL_DEVICES,
    CORAL_TPU,
    GPU_BASELINE,
    PI_NCS2,
    DeviceProfile,
    profile_model,
    training_macs_per_example,
)


class TestProfiler:
    def test_dense_macs(self):
        model = nn.Sequential([nn.Dense(10)])
        model.build((4,))
        profile = profile_model(model, (4,))
        assert profile.total_macs >= 40
        assert profile.layers[0].macs == 40

    def test_conv_macs_formula(self):
        model = nn.Sequential([nn.Conv2D(8, 3, padding="same", name="c")])
        model.build((2, 16, 16))
        profile = profile_model(model, (2, 16, 16))
        # out 16x16, 8 filters, 2 in-channels, 3x3 kernel
        assert profile.layers[0].macs == 16 * 16 * 8 * 2 * 9

    def test_lstm_macs_formula(self):
        model = nn.Sequential([nn.LSTM(8)])
        model.build((5, 4))
        profile = profile_model(model, (5, 4))
        assert profile.layers[0].macs == 5 * 4 * 8 * (4 + 8)

    def test_full_architecture_profile(self):
        model = build_cnn_lstm((1, 123, 8))
        profile = profile_model(model, (1, 123, 8))
        assert profile.total_macs > 100_000
        assert profile.total_params == model.num_params
        by_kind = profile.macs_by_kind()
        assert "Conv2D" in by_kind and "LSTM" in by_kind

    def test_memory_scales_with_precision(self):
        model = build_cnn_lstm((1, 64, 6))
        profile = profile_model(model, (1, 64, 6))
        assert profile.memory_bytes(4) == 4 * profile.memory_bytes(1)

    def test_training_macs_3x_forward(self):
        model = build_cnn_lstm((1, 64, 6))
        profile = profile_model(model, (1, 64, 6))
        assert training_macs_per_example(profile) == 3 * profile.total_macs

    def test_render(self):
        model = build_cnn_lstm((1, 64, 6))
        text = profile_model(model, (1, 64, 6)).render()
        assert "total MACs" in text


class TestDeviceProfiles:
    def test_schemes_match_hardware(self):
        assert GPU_BASELINE.scheme == "fp32"
        assert CORAL_TPU.scheme == "int8"  # TPU only supports 8-bit (paper)
        assert PI_NCS2.scheme == "fp16"

    def test_registry(self):
        assert ALL_DEVICES["coral_tpu"] is CORAL_TPU
        assert set(ALL_DEVICES) == {"gpu", "coral_tpu", "pi_ncs2"}

    def test_invalid_profile_validation(self):
        with pytest.raises(ValueError, match="scheme"):
            DeviceProfile(
                name="x",
                scheme="bf16",
                inference_overhead_s=0,
                inference_macs_per_s=1,
                training_setup_s=0,
                training_macs_per_s=1,
                power_idle_w=1,
                power_test_w=1,
                power_retrain_w=1,
            )


class TestCostModelShape:
    """The Table II orderings must hold for the paper-scale model."""

    @pytest.fixture(scope="class")
    def profile(self):
        model = build_cnn_lstm((1, 123, 8))
        return profile_model(model, (1, 123, 8))

    def test_tpu_inference_faster_than_ncs2(self, profile):
        assert CORAL_TPU.inference_time_s(profile) < PI_NCS2.inference_time_s(profile)

    def test_tpu_retraining_faster_than_ncs2(self, profile):
        t_tpu = CORAL_TPU.training_time_s(profile, num_examples=4, epochs=15)
        t_ncs2 = PI_NCS2.training_time_s(profile, num_examples=4, epochs=15)
        assert t_tpu < t_ncs2

    def test_inference_times_in_table2_regime(self, profile):
        """Paper: 47.31 ms (TPU) vs 239.70 ms (NCS2)."""
        t_tpu = CORAL_TPU.inference_time_s(profile) * 1e3
        t_ncs2 = PI_NCS2.inference_time_s(profile) * 1e3
        assert 20 < t_tpu < 100
        assert 150 < t_ncs2 < 400

    def test_retraining_times_in_table2_regime(self, profile):
        """Paper: 32.48 s (TPU) vs 78.52 s (NCS2)."""
        t_tpu = CORAL_TPU.training_time_s(profile, 4, 15)
        t_ncs2 = PI_NCS2.training_time_s(profile, 4, 15)
        assert 15 < t_tpu < 60
        assert 50 < t_ncs2 < 160

    def test_power_ordering_matches_table2(self, profile):
        for dev in (CORAL_TPU, PI_NCS2):
            assert dev.power_idle_w < dev.power_test_w < dev.power_retrain_w
        assert CORAL_TPU.power_retrain_w < PI_NCS2.power_retrain_w

    def test_gpu_fastest(self, profile):
        assert GPU_BASELINE.inference_time_s(profile) < CORAL_TPU.inference_time_s(
            profile
        )

    def test_energy_consistency(self, profile):
        e = CORAL_TPU.inference_energy_j(profile)
        assert e == pytest.approx(
            CORAL_TPU.power_test_w * CORAL_TPU.inference_time_s(profile)
        )

    def test_training_time_validation(self, profile):
        with pytest.raises(ValueError):
            CORAL_TPU.training_time_s(profile, 0, 5)


class TestAblationMacs:
    """The architecture ablation's MAC column, on the bench map shape."""

    @pytest.mark.parametrize(
        "overrides, macs, recurrent_macs",
        [
            ({"recurrent_cell": "lstm"}, 894_336, 6 * 4 * 32 * (480 + 32)),
            ({"recurrent_cell": "gru"}, 796_032, 6 * 3 * 32 * (480 + 32)),
            ({"recurrent_cell": "rnn"}, 599_424, 6 * 32 * (480 + 32)),
            (
                {"recurrent_cell": "lstm", "attention_readout": True},
                897_696,
                6 * 4 * 32 * (480 + 32),
            ),
        ],
        ids=["lstm", "gru", "rnn", "lstm+attn"],
    )
    def test_variant_macs(self, overrides, macs, recurrent_macs):
        import dataclasses

        from repro.core import CLEARConfig

        config = dataclasses.replace(CLEARConfig.fast(seed=0).model, **overrides)
        shape = (1, 123, 6)
        profile = profile_model(build_cnn_lstm(shape, config), shape)
        by_kind = {layer.kind: layer.macs for layer in profile.layers}
        assert profile.total_macs == macs
        cell = {"lstm": "LSTM", "gru": "GRU", "rnn": "SimpleRNN"}
        assert by_kind[cell[overrides["recurrent_cell"]]] == recurrent_macs
        if overrides.get("attention_readout"):
            # T=6 steps over F=32 LSTM features with A=16 attention units.
            assert by_kind["TemporalAttention"] == 6 * (32 * 16 + 16 + 32)
