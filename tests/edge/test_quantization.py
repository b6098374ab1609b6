"""Tests for int8/fp16 fake quantization."""

import numpy as np
import pytest

from repro import nn
from repro.edge import (
    QuantizedModel,
    calibrate_activation_ranges,
    quantize_dequantize_fp16,
    quantize_dequantize_int8,
)


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def small_model(seed=0):
    return nn.Sequential(
        [nn.Dense(16, name="d1"), nn.ReLU(), nn.Dense(2, name="d2")], seed=seed
    )


class TestTensorQuantization:
    def test_int8_grid_size(self, rng):
        x = rng.normal(size=1000)
        q = quantize_dequantize_int8(x)
        assert len(np.unique(q)) <= 255

    def test_int8_error_bounded_by_half_step(self, rng):
        x = rng.normal(size=1000)
        scale = np.abs(x).max() / 127.0
        q = quantize_dequantize_int8(x)
        assert np.max(np.abs(q - x)) <= 0.5 * scale + 1e-12

    def test_int8_zero_tensor_passthrough(self):
        x = np.zeros(10)
        np.testing.assert_array_equal(quantize_dequantize_int8(x), x)

    def test_int8_clips_beyond_scale(self):
        x = np.array([10.0, -10.0])
        q = quantize_dequantize_int8(x, scale=0.05)
        np.testing.assert_allclose(q, [127 * 0.05, -127 * 0.05])

    def test_int8_invalid_scale(self):
        with pytest.raises(ValueError, match="scale"):
            quantize_dequantize_int8(np.ones(3), scale=0.0)

    def test_fp16_precision(self):
        x = np.array([1.0001, 100.001, 1e-9])
        q = quantize_dequantize_fp16(x)
        # fp16 has ~3 decimal digits of precision.
        np.testing.assert_allclose(q, x, rtol=1e-3, atol=1e-7)

    def test_fp16_error_smaller_than_int8(self, rng):
        x = rng.normal(size=2000)
        err_fp16 = np.abs(quantize_dequantize_fp16(x) - x).mean()
        err_int8 = np.abs(quantize_dequantize_int8(x) - x).mean()
        assert err_fp16 < err_int8


class TestCalibration:
    def test_ranges_cover_layers(self, rng):
        model = small_model()
        x = rng.normal(size=(32, 8))
        model.forward(x)  # build
        ranges = calibrate_activation_ranges(model, x)
        assert len(ranges) == len(model.layers)
        assert all(r.max_abs >= 0 for r in ranges)

    def test_empty_calibration_raises(self, rng):
        model = small_model()
        with pytest.raises(ValueError, match="empty"):
            calibrate_activation_ranges(model, np.empty((0, 8)))


class TestQuantizedModel:
    def _trained(self, rng):
        model = small_model().compile(nn.SoftmaxCrossEntropy(), nn.Adam(0.05))
        x = rng.normal(size=(64, 8))
        y = (x.sum(axis=1) > 0).astype(int)
        model.fit(x, y, epochs=20, batch_size=16)
        return model, x, y

    def test_fp32_is_exact_passthrough(self, rng):
        model, x, _ = self._trained(rng)
        q = QuantizedModel(model, scheme="fp32")
        np.testing.assert_allclose(q.predict(x), model.predict(x), atol=1e-12)

    def test_fp16_close_to_float(self, rng):
        model, x, y = self._trained(rng)
        q = QuantizedModel(model, scheme="fp16")
        float_acc = nn.accuracy(y, model.predict(x))
        fp16_acc = nn.accuracy(y, q.predict(x))
        assert abs(float_acc - fp16_acc) < 0.05

    def test_int8_requires_calibration(self, rng):
        model, _, _ = self._trained(rng)
        with pytest.raises(ValueError, match="calibration"):
            QuantizedModel(model, scheme="int8")

    def test_int8_accuracy_reasonable_but_degraded(self, rng):
        model, x, y = self._trained(rng)
        q = QuantizedModel(model, scheme="int8", calibration_x=x[:16])
        int8_acc = nn.accuracy(y, q.predict(x))
        assert int8_acc > 0.6  # still works

    def test_precision_ordering_of_weight_error(self, rng):
        """fp16 distorts weights less than int8 (the Table II mechanism)."""
        model, x, _ = self._trained(rng)
        err_fp16 = QuantizedModel(model, "fp16").weight_error(model)
        err_int8 = QuantizedModel(model, "int8", calibration_x=x[:16]).weight_error(
            model
        )
        assert 0.0 <= err_fp16 < err_int8

    def test_original_model_untouched(self, rng):
        model, x, _ = self._trained(rng)
        before = model.get_weights()
        QuantizedModel(model, scheme="int8", calibration_x=x[:16])
        after = model.get_weights()
        for b, a in zip(before, after):
            for key in b:
                np.testing.assert_array_equal(b[key], a[key])

    def test_unknown_scheme_raises(self, rng):
        model, _, _ = self._trained(rng)
        with pytest.raises(ValueError, match="unknown scheme"):
            QuantizedModel(model, scheme="int4")

    def test_predict_classes(self, rng):
        model, x, _ = self._trained(rng)
        q = QuantizedModel(model, scheme="fp16")
        preds = q.predict_classes(x)
        assert preds.shape == (64,)
