"""Tests for Dropout, the reshape layers and the ReLU layer."""

import numpy as np
import pytest

from repro.nn.gradcheck import check_layer_gradients
from repro.nn.layers import Dropout, Flatten, ReLU, ToSequence


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestDropout:
    def test_identity_in_eval_mode(self, rng):
        layer = Dropout(0.5, seed=0)
        layer.training = False
        x = rng.normal(size=(4, 10))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_training_zeroes_some_units(self, rng):
        layer = Dropout(0.5, seed=0)
        layer.training = True
        x = np.ones((10, 100))
        out = layer.forward(x)
        dropped = np.mean(out == 0.0)
        assert 0.3 < dropped < 0.7

    def test_inverted_scaling_preserves_expectation(self, rng):
        layer = Dropout(0.3, seed=1)
        layer.training = True
        x = np.ones((100, 100))
        out = layer.forward(x)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_backward_uses_same_mask(self, rng):
        layer = Dropout(0.5, seed=2)
        layer.training = True
        x = rng.normal(size=(5, 8))
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(out))
        # Gradient is zero exactly where output was dropped.
        np.testing.assert_array_equal(grad == 0.0, out == 0.0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError, match="rate must be in"):
            Dropout(1.0)

    def test_zero_rate_is_identity(self, rng):
        layer = Dropout(0.0)
        layer.training = True
        x = rng.normal(size=(3, 3))
        np.testing.assert_array_equal(layer.forward(x), x)


class TestReshapeLayers:
    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(3, 2, 4, 5))
        out = layer.forward(x)
        assert out.shape == (3, 40)
        np.testing.assert_array_equal(layer.backward(out), x)

    def test_tosequence_shape(self, rng):
        layer = ToSequence()
        x = rng.normal(size=(2, 3, 4, 5))  # N C H W
        out = layer.forward(x)
        assert out.shape == (2, 5, 12)  # N W C*H

    def test_tosequence_preserves_content(self, rng):
        layer = ToSequence()
        x = rng.normal(size=(1, 2, 3, 4))
        out = layer.forward(x)
        # Step w of the sequence is the flattened (C, H) slice at width w.
        for w in range(4):
            np.testing.assert_array_equal(out[0, w], x[0, :, :, w].reshape(-1))

    def test_tosequence_backward_is_exact_inverse_transpose(self, rng):
        layer = ToSequence()
        x = rng.normal(size=(2, 3, 4, 5))
        out = layer.forward(x)
        grad = rng.normal(size=out.shape)
        back = layer.backward(grad)
        assert back.shape == x.shape
        # Adjoint test.
        assert float(np.sum(out * grad)) == pytest.approx(
            float(np.sum(x * back)), rel=1e-12
        )

    def test_tosequence_rejects_non_4d(self):
        with pytest.raises(ValueError, match=r"\(N, C, H, W\)"):
            ToSequence().forward(np.zeros((2, 3)))


class TestActivationLayers:
    @pytest.mark.parametrize("layer_cls", [ReLU])
    def test_input_gradients_match_numeric(self, rng, layer_cls):
        layer = layer_cls()
        x = rng.normal(size=(4, 6)) + 0.05  # nudge away from ReLU kink
        errors = check_layer_gradients(layer, x, rng)
        assert errors["input"] < 1e-5, f"{layer_cls.__name__}: {errors['input']}"

