"""Edge cases for the static shape/dtype tracer in analysis/shapes.py.

Beyond the per-layer contract matrix in test_shapes.py: zero-length and
rank-0 shapes, dtype propagation through mixed-precision chains, and the
reshape-layer/attention interactions that the CNN-LSTM variants exercise.
"""

import pytest

from repro.analysis.graph import trace_layers
from repro.analysis.shapes import GraphValidationError, TensorSpec
from repro import nn


class TestZeroLengthDims:
    def test_zero_input_dim_rejected_before_any_layer(self):
        with pytest.raises(GraphValidationError, match="zero/negative"):
            trace_layers([nn.Dense(4)], (3, 0, 5))

    def test_zero_dim_mid_stack_names_producing_layer(self):
        # 3x3 kernel over a 4-row map leaves 2 rows; a second conv of the
        # same kernel then produces 0 — the error must blame layer 1,
        # not the input or layer 0.
        layers = [
            nn.Conv2D(4, kernel_size=3, padding="valid"),
            nn.Conv2D(4, kernel_size=3, padding="valid"),
        ]
        with pytest.raises(GraphValidationError) as excinfo:
            trace_layers(layers, (1, 4, 4))
        assert excinfo.value.layer_index == 1
        assert excinfo.value.input_shape == (4, 2, 2)

    def test_rank0_input_accepted_by_rankless_layers(self):
        # () has no dims, so the zero-dim guard is vacuous; Dropout
        # accepts any rank, and the spec size is the scalar's 1.
        report = trace_layers([nn.Dropout(0.5)], ())
        assert report.output_shape == ()
        assert TensorSpec(()).size == 1

    def test_rank0_rejected_by_dense_with_rank_message(self):
        with pytest.raises(GraphValidationError, match="rank 0"):
            trace_layers([nn.Dense(4)], ())


class TestMixedPrecisionPropagation:
    def test_int8_promoted_by_conv_with_warning(self):
        report = trace_layers([nn.Conv2D(2, kernel_size=1)], (1, 3, 3), dtype="int8")
        assert report.output_shape == (2, 3, 3)
        assert report.layers[0].output_dtype == "float64"
        assert len(report.warnings) == 1
        assert "int8" in report.warnings[0]

    def test_float16_cast_once_at_the_model_input(self):
        # The model casts its input to the backend's compute dtype, so no
        # layer, parametric or not, ever sees float16.
        layers = [nn.Flatten(), nn.Dropout(0.1), nn.ReLU()]
        report = trace_layers(layers, (6, 2), dtype="float16")
        assert all(rep.input_dtype == "float64" for rep in report.layers)
        assert all(rep.output_dtype == "float64" for rep in report.layers)
        (warning,) = report.warnings
        assert "model input casts float16" in warning

    def test_float32_survives_parametric_layers(self):
        layers = [nn.TemporalAttention(4), nn.Dense(3)]
        report = trace_layers(layers, (6, 2), dtype="float32")
        assert all(rep.output_dtype == "float32" for rep in report.layers)
        assert report.warnings == ()

    def test_promotion_warned_once_per_chain_not_per_layer(self):
        layers = [nn.Dense(8), nn.ReLU(), nn.Dense(4)]
        report = trace_layers(layers, (16,), dtype="float16")
        assert len(report.warnings) == 1
        assert "model input" in report.warnings[0]

    def test_redowncast_after_promotion_warns_again(self):
        # A deliberate mid-stack downcast (quantized edge deployment)
        # re-arms the warning for the next parametric layer.
        first = trace_layers([nn.Dense(8)], (16,), dtype="float16")
        assert len(first.warnings) == 1
        again = trace_layers([nn.Dense(4)], (8,), dtype="float16")
        assert len(again.warnings) == 1

    def test_mixed_precision_report_records_both_dtypes_per_layer(self):
        # The report keeps the caller's input dtype next to the dtype
        # each layer computes in.
        report = trace_layers([nn.ReLU(), nn.LSTM(3)], (2, 2), dtype="float16")
        lstm = report.layers[1]
        assert (lstm.input_dtype, lstm.output_dtype) == ("float64", "float64")
        as_dict = report.to_dict()
        assert as_dict["input_dtype"] == "float16"
        assert as_dict["layers"][1]["input_dtype"] == "float64"

    def test_float64_chain_stays_silent(self):
        layers = [nn.Conv2D(2, 1), nn.ToSequence(), nn.TemporalAttention(4)]
        report = trace_layers(layers, (1, 2, 2))
        assert report.warnings == ()
        assert report.output_shape == (4,)


class TestReshapeAttentionInteractions:
    def test_reshape_builds_sequence_for_attention(self):
        report = trace_layers([nn.ToSequence(), nn.TemporalAttention(4)], (1, 2, 6))
        assert report.layers[0].output_shape == (6, 2)
        # Attention pools (T, F) -> (F,).
        assert report.output_shape == (2,)

    def test_attention_param_count_from_reshaped_features(self):
        report = trace_layers([nn.ToSequence(), nn.TemporalAttention(5)], (1, 4, 3))
        # W: F*A, b: A, v: A  with F=4, A=5.
        assert report.layers[1].params == 4 * 5 + 5 + 5

    def test_reshape_to_rank1_then_attention_gets_sequence_hint(self):
        layers = [nn.Flatten(), nn.TemporalAttention(4)]
        with pytest.raises(GraphValidationError) as excinfo:
            trace_layers(layers, (6, 2))
        assert "cannot follow a flattening layer" in str(excinfo.value)
        assert excinfo.value.layer_index == 1

    def test_attention_after_recurrent_sequences(self):
        layers = [nn.LSTM(6, return_sequences=True), nn.TemporalAttention(4)]
        report = trace_layers(layers, (10, 3))
        assert report.layers[0].output_shape == (10, 6)
        assert report.output_shape == (6,)
