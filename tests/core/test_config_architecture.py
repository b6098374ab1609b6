"""Tests for CLEAR configuration and the CNN-LSTM architecture builder."""

import numpy as np
import pytest

from repro.core import (
    CLEARConfig,
    FineTuneConfig,
    ModelConfig,
    TrainingConfig,
    architecture_summary,
    build_cnn_lstm,
    freeze_feature_extractor,
)


class TestConfigs:
    def test_paper_defaults(self):
        cfg = CLEARConfig.paper()
        assert cfg.num_clusters == 4
        assert cfg.ca_data_fraction == 0.10
        assert cfg.ft_label_fraction == 0.20

    def test_fast_preset_is_lighter(self):
        fast = CLEARConfig.fast()
        paper = CLEARConfig.paper()
        assert fast.training.epochs < paper.training.epochs

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="num_clusters"):
            CLEARConfig(num_clusters=0)
        with pytest.raises(ValueError, match="ca_data_fraction"):
            CLEARConfig(ca_data_fraction=0.0)
        with pytest.raises(ValueError, match="ft_label_fraction"):
            CLEARConfig(ft_label_fraction=1.0)
        with pytest.raises(ValueError, match="2 conv layers"):
            ModelConfig(conv_filters=(8, 16, 32))
        with pytest.raises(ValueError, match="epochs"):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError, match="learning_rate"):
            FineTuneConfig(learning_rate=0.0)

    def test_configs_are_frozen(self):
        cfg = CLEARConfig()
        with pytest.raises(AttributeError):
            cfg.num_clusters = 7


class TestArchitecture:
    def test_layer_sequence_matches_fig2(self):
        model = build_cnn_lstm((1, 123, 8))
        kinds = [type(l).__name__ for l in model.layers]
        assert kinds == [
            "Conv2D",
            "ReLU",
            "MaxPool2D",
            "Conv2D",
            "ReLU",
            "MaxPool2D",
            "ToSequence",
            "LSTM",
            "Dropout",
            "Dense",
        ]

    def test_window_axis_survives_pooling(self):
        """Pooling must shrink only the feature axis; the LSTM needs the
        full window sequence (paper treats W as time)."""
        model = build_cnn_lstm((1, 123, 8))
        shape = (1, 123, 8)
        for layer in model.layers:
            shape = layer.output_shape(shape)
            if type(layer).__name__ == "ToSequence":
                assert shape[0] == 8  # all 8 windows still present
                break

    def test_output_is_num_classes(self):
        model = build_cnn_lstm((1, 123, 8), ModelConfig(num_classes=2))
        x = np.random.default_rng(0).normal(size=(3, 1, 123, 8))
        assert model.forward(x).shape == (3, 2)

    def test_edge_sized_model(self):
        """The paper stresses deployability: well under a million params."""
        model = build_cnn_lstm((1, 123, 8))
        assert model.num_params < 300_000

    def test_custom_config_respected(self):
        cfg = ModelConfig(conv_filters=(4, 8), lstm_units=16)
        model = build_cnn_lstm((1, 64, 6), cfg)
        assert model.layers[0].filters == 4
        assert model.layers[7].units == 16

    def test_deterministic_initialization(self):
        a = build_cnn_lstm((1, 32, 4), seed=5)
        b = build_cnn_lstm((1, 32, 4), seed=5)
        np.testing.assert_array_equal(
            a.layers[0].params["W"], b.layers[0].params["W"]
        )

    def test_invalid_input_shape(self):
        with pytest.raises(ValueError, match="C, F, W"):
            build_cnn_lstm((123, 8))

    def test_too_small_feature_map(self):
        with pytest.raises(ValueError, match="too small"):
            build_cnn_lstm((1, 2, 4))

    def test_freeze_feature_extractor(self):
        model = build_cnn_lstm((1, 32, 4))
        freeze_feature_extractor(model)
        frozen = {l.name for l in model.layers if l.frozen}
        assert frozen == {"conv1", "conv2"}
        assert not model.layers[-1].frozen  # head trainable

    def test_summary_renders(self):
        text = architecture_summary((1, 123, 8))
        assert "conv1" in text and "lstm" in text
        assert "total params" in text


class TestAttentionReadout:
    def test_attention_variant_builds(self):
        from repro.core import ModelConfig, build_cnn_lstm

        model = build_cnn_lstm(
            (1, 32, 4), ModelConfig(attention_readout=True, lstm_units=8)
        )
        kinds = [type(l).__name__ for l in model.layers]
        assert "TemporalAttention" in kinds
        # The recurrent layer must return sequences for attention.
        lstm = next(l for l in model.layers if l.name == "lstm")
        assert lstm.return_sequences

    def test_attention_variant_forward(self):
        import numpy as np

        from repro.core import ModelConfig, build_cnn_lstm

        model = build_cnn_lstm(
            (1, 32, 4), ModelConfig(attention_readout=True, lstm_units=8)
        )
        x = np.random.default_rng(0).normal(size=(3, 1, 32, 4))
        assert model.forward(x).shape == (3, 2)

    def test_default_has_no_attention(self):
        from repro.core import ModelConfig, build_cnn_lstm

        model = build_cnn_lstm((1, 32, 4), ModelConfig())
        kinds = [type(l).__name__ for l in model.layers]
        assert "TemporalAttention" not in kinds
