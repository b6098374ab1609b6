"""Tests for weight initializers."""

import numpy as np
import pytest

from repro.nn import initializers as init


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestFanInOut:
    def test_dense_shape(self):
        assert init._fan_in_out((10, 20)) == (10, 20)

    def test_conv_shape_includes_receptive_field(self):
        # (out_c, in_c, kh, kw) = (8, 3, 3, 3)
        fan_in, fan_out = init._fan_in_out((8, 3, 3, 3))
        assert fan_in == 3 * 9
        assert fan_out == 8 * 9

    def test_vector_shape(self):
        assert init._fan_in_out((5,)) == (5, 5)

    def test_scalar_shape(self):
        assert init._fan_in_out(()) == (1, 1)


class TestBasicInitializers:
    def test_zeros(self, rng):
        w = init.zeros((3, 4), rng)
        assert w.shape == (3, 4)
        assert np.all(w == 0.0)


class TestGlorotHe:
    def test_glorot_uniform_limit(self, rng):
        w = init.glorot_uniform((100, 200), rng)
        limit = np.sqrt(6.0 / 300)
        assert np.abs(w).max() <= limit

    def test_he_uniform_limit(self, rng):
        w = init.he_uniform((64, 32), rng)
        assert np.abs(w).max() <= np.sqrt(6.0 / 64)

    def test_determinism_same_seed(self):
        a = init.glorot_uniform((5, 5), np.random.default_rng(7))
        b = init.glorot_uniform((5, 5), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestOrthogonal:
    def test_square_is_orthogonal(self, rng):
        w = init.orthogonal((32, 32), rng)
        np.testing.assert_allclose(w @ w.T, np.eye(32), atol=1e-10)

    def test_wide_rows_orthonormal(self, rng):
        w = init.orthogonal((8, 32), rng)
        np.testing.assert_allclose(w @ w.T, np.eye(8), atol=1e-10)

    def test_tall_cols_orthonormal(self, rng):
        w = init.orthogonal((32, 8), rng)
        np.testing.assert_allclose(w.T @ w, np.eye(8), atol=1e-10)

    def test_reshaped_to_4d(self, rng):
        w = init.orthogonal((16, 4, 3, 3), rng)
        assert w.shape == (16, 4, 3, 3)
        flat = w.reshape(16, -1)
        # 16 x 36: rows orthonormal
        np.testing.assert_allclose(flat @ flat.T, np.eye(16), atol=1e-10)

