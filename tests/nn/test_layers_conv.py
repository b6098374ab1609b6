"""Tests for Conv2D / pooling layers: shapes, reference conv, gradients."""

import numpy as np
import pytest
from scipy.signal import correlate2d

from repro.nn.gradcheck import check_layer_gradients
from repro.nn.layers import Conv2D, MaxPool2D
from repro.nn.layers.conv import col2im, conv_output_size, im2col, resolve_padding


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestHelpers:
    def test_conv_output_size_valid(self):
        assert conv_output_size(8, 3, 1, 0) == 6
        assert conv_output_size(8, 3, 1, 1) == 8
        assert conv_output_size(8, 2, 2, 0) == 4

    def test_conv_output_size_nonpositive_raises(self):
        with pytest.raises(ValueError, match="non-positive"):
            conv_output_size(2, 5, 1, 0)

    def test_resolve_padding_same_odd_kernel(self):
        assert resolve_padding("same", (3, 3), (1, 1)) == (1, 1)
        assert resolve_padding("same", (5, 3), (1, 1)) == (2, 1)

    def test_resolve_padding_valid(self):
        assert resolve_padding("valid", (3, 3), (1, 1)) == (0, 0)

    def test_resolve_padding_int(self):
        assert resolve_padding(2, (3, 3), (1, 1)) == (2, 2)

    def test_resolve_padding_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown padding"):
            resolve_padding("weird", (3, 3), (1, 1))

    def test_im2col_col2im_adjoint(self, rng):
        """col2im must be the exact adjoint of im2col: <Ax, y> == <x, A'y>."""
        x = rng.normal(size=(2, 3, 6, 7))
        cols, _ = im2col(x, (3, 3), (1, 1), (1, 1))
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        x_back = col2im(y, x.shape, (3, 3), (1, 1), (1, 1))
        rhs = float(np.sum(x * x_back))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestConv2DForward:
    def test_matches_scipy_correlate(self, rng):
        """Single-channel conv must equal scipy's 2D cross-correlation."""
        layer = Conv2D(1, kernel_size=3, padding="valid", use_bias=False)
        x = rng.normal(size=(1, 1, 8, 9))
        layer.ensure_built(x, rng)
        out = layer.forward(x)
        kernel = layer.params["W"][0, 0]
        expected = correlate2d(x[0, 0], kernel, mode="valid")
        np.testing.assert_allclose(out[0, 0], expected, atol=1e-12)

    def test_multichannel_matches_scipy(self, rng):
        layer = Conv2D(2, kernel_size=3, padding="valid", use_bias=True)
        x = rng.normal(size=(1, 3, 6, 6))
        layer.ensure_built(x, rng)
        out = layer.forward(x)
        for f in range(2):
            expected = sum(
                correlate2d(x[0, c], layer.params["W"][f, c], mode="valid")
                for c in range(3)
            ) + layer.params["b"][f]
            np.testing.assert_allclose(out[0, f], expected, atol=1e-12)

    def test_same_padding_preserves_size(self, rng):
        layer = Conv2D(4, kernel_size=3, padding="same")
        x = rng.normal(size=(2, 1, 10, 12))
        layer.ensure_built(x, rng)
        assert layer.forward(x).shape == (2, 4, 10, 12)

    def test_stride_two(self, rng):
        layer = Conv2D(4, kernel_size=3, stride=2, padding="same")
        x = rng.normal(size=(2, 1, 8, 8))
        layer.ensure_built(x, rng)
        # (8 + 2*1 - 3) // 2 + 1 = 4
        assert layer.forward(x).shape == (2, 4, 4, 4)

    def test_output_shape_helper(self):
        layer = Conv2D(16, kernel_size=3, padding="same")
        assert layer.output_shape((3, 20, 30)) == (16, 20, 30)

    def test_invalid_filters(self):
        with pytest.raises(ValueError, match="filters must be positive"):
            Conv2D(0)

    def test_rejects_non_3d_input_shape(self, rng):
        with pytest.raises(ValueError, match=r"\(C, H, W\)"):
            Conv2D(4).build((5,), rng)


class TestConv2DBackward:
    @pytest.mark.parametrize(
        "padding,stride", [("valid", 1), ("same", 1), ("same", 2), (1, 1)]
    )
    def test_gradients_match_numeric(self, rng, padding, stride):
        layer = Conv2D(3, kernel_size=3, stride=stride, padding=padding)
        x = rng.normal(size=(2, 2, 6, 5))
        errors = check_layer_gradients(layer, x, rng)
        for key, err in errors.items():
            assert err < 1e-6, f"gradient error for {key}: {err}"

    def test_backward_before_forward_raises(self, rng):
        layer = Conv2D(3)
        layer.build((1, 4, 4), rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 3, 4, 4)))


class TestMaxPool2D:
    def test_forward_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_gradient_routes_to_argmax(self, rng):
        layer = MaxPool2D(2)
        x = rng.normal(size=(2, 3, 6, 4))
        errors = check_layer_gradients(layer, x, rng)
        assert errors["input"] < 1e-6

    def test_overlapping_windows_gradient(self, rng):
        layer = MaxPool2D(pool_size=3, stride=1)
        # Use well-separated values so eps-perturbation cannot flip argmax.
        x = rng.permuted(np.arange(2 * 1 * 6 * 6, dtype=float)).reshape(2, 1, 6, 6)
        errors = check_layer_gradients(layer, x, rng)
        assert errors["input"] < 1e-6

    def test_output_shape_helper(self):
        assert MaxPool2D(2).output_shape((8, 10, 6)) == (8, 5, 3)

