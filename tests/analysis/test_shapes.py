"""Shape/dtype/param inference must agree with real execution, per layer."""

import numpy as np
import pytest

from repro import nn
from repro.analysis import (
    GraphValidationError,
    TensorSpec,
    estimate_param_count,
    trace_layers,
)

RNG = np.random.default_rng(0)

#: Every layer class in the zoo with a compatible input shape.  The
#: static inference must match what forward() actually produces and what
#: build() actually allocates.
LAYER_CASES = [
    (lambda: nn.Dense(7), (5,)),
    (lambda: nn.Dense(3, use_bias=False), (4,)),
    (lambda: nn.Conv2D(6, 3, padding="same"), (2, 8, 10)),
    (lambda: nn.Conv2D(4, 3, stride=2, padding="valid"), (1, 9, 9)),
    (lambda: nn.MaxPool2D((2, 1)), (3, 8, 5)),
    (lambda: nn.LSTM(9), (6, 4)),
    (lambda: nn.LSTM(9, return_sequences=True), (6, 4)),
    (lambda: nn.GRU(5), (7, 3)),
    (lambda: nn.SimpleRNN(4), (5, 3)),
    (lambda: nn.TemporalAttention(8), (6, 10)),
    (lambda: nn.Dropout(0.5, seed=0), (12,)),
    (lambda: nn.Flatten(), (2, 3, 4)),
    (lambda: nn.ToSequence(), (3, 4, 5)),
    (lambda: nn.ReLU(), (4, 4)),
]


def _case_id(case):
    factory, shape = case
    return f"{type(factory()).__name__}-{shape}"


@pytest.mark.parametrize("case", LAYER_CASES, ids=_case_id)
class TestPerLayerInference:
    def test_shape_matches_forward(self, case):
        factory, shape = case
        layer = factory()
        report = trace_layers([layer], shape)
        x = RNG.normal(size=(2,) + shape)
        layer.ensure_built(x, np.random.default_rng(0))
        layer.training = False
        out = layer.forward(x)
        assert report.layers[0].output_shape == out.shape[1:]

    def test_param_estimate_matches_build(self, case):
        factory, shape = case
        layer = factory()
        estimated = estimate_param_count(layer, TensorSpec(shape))
        layer.build(shape, np.random.default_rng(0))
        assert estimated == layer.num_params


def test_registry_covers_every_layer_class():
    """Every registered layer must appear in LAYER_CASES above."""
    covered = {type(factory()).__name__ for factory, _ in LAYER_CASES}
    assert set(nn.layers.LAYER_REGISTRY) <= covered


class TestDefects:
    def test_zero_dim_from_pooling(self):
        with pytest.raises(GraphValidationError, match="pool_b"):
            trace_layers(
                [
                    nn.MaxPool2D((2, 1), name="pool_a"),
                    nn.MaxPool2D((2, 1), name="pool_b"),
                ],
                (1, 2, 4),
            )

    def test_valid_conv_shrinks_below_kernel(self):
        with pytest.raises(GraphValidationError, match="non-positive"):
            trace_layers([nn.Conv2D(2, 5, padding="valid")], (1, 3, 3))

    def test_recurrent_after_flatten(self):
        with pytest.raises(GraphValidationError, match="cannot follow a flattening"):
            trace_layers([nn.Flatten(), nn.LSTM(4)], (2, 3, 5))

    def test_dense_on_unflattened_input(self):
        with pytest.raises(GraphValidationError, match=r"\(features,\)"):
            trace_layers([nn.Dense(3)], (4, 5))

    def test_error_carries_layer_context(self):
        try:
            trace_layers(
                [nn.Flatten(name="flat"), nn.GRU(4, name="gru_x")], (2, 3, 5)
            )
        except GraphValidationError as exc:
            assert exc.layer_index == 1
            assert exc.layer_name == "gru_x"
            assert exc.layer_class == "GRU"
            assert exc.input_shape == (30,)
        else:
            pytest.fail("expected GraphValidationError")

    def test_bad_input_shape_rejected(self):
        with pytest.raises(GraphValidationError, match="zero/negative"):
            trace_layers([nn.Dense(3)], (0,))

    def test_is_a_value_error(self):
        with pytest.raises(ValueError):
            trace_layers([nn.Flatten(), nn.LSTM(4)], (2, 3, 5))


class TestDtypePropagation:
    def test_float64_stays_silent(self):
        report = trace_layers([nn.Dense(3)], (4,), dtype="float64")
        assert report.warnings == ()
        assert report.layers[0].output_dtype == "float64"

    def test_float16_cast_at_input_warns(self):
        report = trace_layers([nn.ReLU(), nn.Dense(3)], (4,), dtype="float16")
        # The model input casts float16 to float64; every layer keeps it.
        assert report.input_dtype == "float16"
        assert report.layers[0].input_dtype == "float64"
        assert report.layers[1].output_dtype == "float64"
        assert len(report.warnings) == 1
        assert "casts float16" in report.warnings[0]

    def test_float16_promotion_warns(self):
        report = trace_layers([nn.LSTM(4)], (5, 3), dtype="float16")
        assert report.layers[0].output_dtype == "float64"
        assert len(report.warnings) == 1

    @pytest.mark.parametrize("dtype", ["float64", "float32", "float16"])
    def test_report_dtype_matches_predict(self, dtype):
        from repro.analysis import validate_model
        from repro.core.architecture import build_cnn_lstm

        model = build_cnn_lstm((1, 20, 6))
        report = validate_model(model, (1, 20, 6), dtype=dtype)
        x = RNG.normal(size=(2, 1, 20, 6)).astype(dtype)
        assert report.layers[-1].output_dtype == model.predict(x).dtype.name
