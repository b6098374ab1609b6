"""Graph-level validation: models, checkpoint configs, the paper stack."""

import numpy as np
import pytest

from repro import nn
from repro.analysis import (
    GraphValidationError,
    PRECISION_BYTES,
    validate_architecture,
    validate_config,
    validate_model,
)
from repro.core.architecture import build_cnn_lstm, cnn_lstm_layers
from repro.core.config import ModelConfig
from repro.nn.checkpoint import model_to_config

INPUT_SHAPE = (1, 8, 12)  # (C, F, W): F survives two (2,1) pools


class TestPaperArchitecture:
    def test_default_cnn_lstm_validates_cleanly(self):
        report = validate_architecture(INPUT_SHAPE)
        assert report.output_shape == (2,)
        assert report.warnings == ()

    @pytest.mark.parametrize("cell", ["lstm", "gru", "rnn"])
    def test_every_recurrent_cell_validates(self, cell):
        report = validate_architecture(
            INPUT_SHAPE, ModelConfig(recurrent_cell=cell)
        )
        assert report.output_shape == (2,)

    def test_attention_readout_validates(self):
        report = validate_architecture(
            INPUT_SHAPE, ModelConfig(attention_readout=True)
        )
        assert report.output_shape == (2,)

    def test_param_estimate_matches_built_model(self):
        report = validate_architecture(INPUT_SHAPE)
        model = build_cnn_lstm(INPUT_SHAPE)
        assert report.total_params == model.num_params

    def test_static_trace_matches_real_forward(self):
        model = build_cnn_lstm(INPUT_SHAPE)
        report = validate_model(model, INPUT_SHAPE)
        x = np.random.default_rng(0).normal(size=(3,) + INPUT_SHAPE)
        out = model.forward(x)
        assert report.output_shape == out.shape[1:]

    def test_misshaped_pooling_rejected_statically(self):
        # Two (4,1) pools collapse an 6-feature axis to zero at pool2.
        with pytest.raises(GraphValidationError, match="pool2"):
            validate_architecture((1, 6, 12), ModelConfig(pool_size=(4, 1)))

    def test_pool_on_window_axis_starves_the_lstm(self):
        # (1,4) pooling eats the window axis: 6 -> 1 -> 0 at pool2.
        with pytest.raises(GraphValidationError, match="pool2"):
            validate_architecture((1, 8, 6), ModelConfig(pool_size=(1, 4)))


class TestConfigValidation:
    def test_checkpoint_config_roundtrip(self):
        model = build_cnn_lstm(INPUT_SHAPE)
        config = model_to_config(model)
        report = validate_config(config, INPUT_SHAPE)
        assert report.total_params == model.num_params
        assert report.output_shape == (2,)

    def test_corrupt_config_rejected(self):
        model = nn.Sequential([nn.Flatten(name="flat"), nn.LSTM(4, name="rec")])
        config = model_to_config(model)
        with pytest.raises(GraphValidationError, match="rec"):
            validate_config(config, (2, 3, 4))


class TestReport:
    def test_footprints_scale_with_precision(self):
        report = validate_architecture(INPUT_SHAPE)
        foot = report.to_dict()["footprint_bytes"]
        assert set(foot) == set(PRECISION_BYTES)
        assert foot["fp64"] == report.total_params * 8
        assert foot["fp16"] == report.total_params * 2
        assert foot["int8"] == report.total_params

    def test_summary_names_every_layer(self):
        report = validate_architecture(INPUT_SHAPE)
        text = report.summary()
        for name in ("conv1", "pool2", "to_sequence", "lstm", "head"):
            assert name in text
        assert "total params" in text

    def test_to_dict_is_json_ready(self):
        import json

        report = validate_architecture(INPUT_SHAPE)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["total_params"] == report.total_params
        assert len(payload["layers"]) == len(cnn_lstm_layers())


class TestSequentialIntegration:
    def test_build_raises_graph_validation_error(self):
        model = nn.Sequential([nn.Flatten(), nn.LSTM(4)])
        with pytest.raises(GraphValidationError, match="cannot follow"):
            model.build((2, 3, 4))

    def test_validate_does_not_build(self):
        model = nn.Sequential([nn.Dense(3)])
        model.validate((5,))
        assert not model.layers[0].built
        assert model.layers[0].params == {}

    def test_build_error_names_layer_index_and_shapes(self):
        model = nn.Sequential(
            [nn.Conv2D(4, 3, name="c1"), nn.MaxPool2D((8, 8), name="big_pool")]
        )
        with pytest.raises(GraphValidationError) as excinfo:
            model.build((1, 6, 6))
        assert excinfo.value.layer_index == 1
        assert excinfo.value.layer_name == "big_pool"
        assert "(4, 6, 6)" in str(excinfo.value)
