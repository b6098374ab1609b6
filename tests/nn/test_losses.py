"""Tests for loss functions: values, gradients, numerical stability."""

import numpy as np
import pytest

from repro.nn import losses
from repro.nn.gradcheck import numeric_grad, relative_error


@pytest.fixture
def rng():
    return np.random.default_rng(23)


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_near_zero_loss(self):
        loss = losses.SoftmaxCrossEntropy()
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert loss.loss(logits, np.array([0, 1])) < 1e-6

    def test_uniform_logits_give_log_c(self):
        loss = losses.SoftmaxCrossEntropy()
        logits = np.zeros((4, 5))
        assert loss.loss(logits, np.array([0, 1, 2, 3])) == pytest.approx(
            np.log(5.0)
        )

    def test_accepts_one_hot_labels(self, rng):
        loss = losses.SoftmaxCrossEntropy()
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        one_hot = np.eye(3)[labels]
        assert loss.loss(logits, labels) == pytest.approx(
            loss.loss(logits, one_hot)
        )

    def test_gradient_matches_numeric(self, rng):
        loss = losses.SoftmaxCrossEntropy()
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        analytic = loss.grad(logits, labels)
        numeric = numeric_grad(lambda: loss.loss(logits, labels), logits)
        assert relative_error(analytic, numeric) < 1e-6

    def test_extreme_logits_stable(self):
        loss = losses.SoftmaxCrossEntropy()
        logits = np.array([[1e5, -1e5, 0.0]])
        value = loss.loss(logits, np.array([0]))
        assert np.isfinite(value)

    def test_one_hot_class_mismatch_raises(self):
        loss = losses.SoftmaxCrossEntropy()
        with pytest.raises(ValueError, match="one-hot"):
            loss.loss(np.zeros((2, 3)), np.eye(4)[:2])


class TestBinaryCrossEntropy:
    def test_matches_explicit_formula(self, rng):
        loss = losses.BinaryCrossEntropy()
        z = rng.normal(size=10)
        y = rng.integers(0, 2, size=10).astype(float)
        p = 1.0 / (1.0 + np.exp(-z))
        expected = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert loss.loss(z, y) == pytest.approx(expected)

    def test_gradient_matches_numeric(self, rng):
        loss = losses.BinaryCrossEntropy()
        z = rng.normal(size=(7, 1))
        y = rng.integers(0, 2, size=(7, 1)).astype(float)
        analytic = loss.grad(z, y)
        numeric = numeric_grad(lambda: loss.loss(z, y), z)
        assert relative_error(analytic, numeric) < 1e-6

    def test_extreme_logits_stable(self):
        loss = losses.BinaryCrossEntropy()
        assert np.isfinite(loss.loss(np.array([1e4, -1e4]), np.array([1.0, 0.0])))


class TestMeanSquaredError:
    def test_zero_for_exact(self, rng):
        loss = losses.MeanSquaredError()
        y = rng.normal(size=(4, 3))
        assert loss.loss(y, y) == 0.0

    def test_gradient_matches_numeric(self, rng):
        loss = losses.MeanSquaredError()
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))
        analytic = loss.grad(pred, target)
        numeric = numeric_grad(lambda: loss.loss(pred, target), pred)
        assert relative_error(analytic, numeric) < 1e-6


class TestRegistry:
    def test_get_by_name(self):
        assert isinstance(losses.get("mse"), losses.MeanSquaredError)

    def test_passthrough(self):
        inst = losses.SoftmaxCrossEntropy()
        assert losses.get(inst) is inst

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="Unknown loss"):
            losses.get("nope")
