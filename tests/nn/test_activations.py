"""Tests for functional activations, including derivative correctness."""

import numpy as np
import pytest

from repro.nn import activations as F


def numeric_derivative(fn, x, eps=1e-6):
    return (fn(x + eps) - fn(x - eps)) / (2 * eps)


class TestReLU:
    def test_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_array_equal(F.relu(x), [0, 0, 0, 0.5, 2.0])


class TestSigmoid:
    def test_range_and_symmetry(self):
        x = np.linspace(-10, 10, 101)
        y = F.sigmoid(x)
        assert np.all((y > 0) & (y < 1))
        np.testing.assert_allclose(y + F.sigmoid(-x), 1.0, atol=1e-12)

    def test_extreme_values_stable(self):
        y = F.sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(0.0, abs=1e-12)
        assert y[1] == pytest.approx(1.0, abs=1e-12)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(10, 5))
        np.testing.assert_allclose(F.softmax(x).sum(axis=-1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(F.softmax(x), F.softmax(x + 100.0), atol=1e-12)

    def test_extreme_logits_stable(self):
        y = F.softmax(np.array([[1e4, -1e4, 0.0]]))
        assert np.all(np.isfinite(y))
        assert y[0, 0] == pytest.approx(1.0)

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(1).normal(size=(4, 7))
        np.testing.assert_allclose(
            F.log_softmax(x), np.log(F.softmax(x)), atol=1e-12
        )

    def test_axis_argument(self):
        x = np.random.default_rng(2).normal(size=(3, 4))
        np.testing.assert_allclose(F.softmax(x, axis=0).sum(axis=0), 1.0)
