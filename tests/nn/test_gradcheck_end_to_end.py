"""End-to-end gradient check through a miniature CNN-LSTM.

This is the keystone test for the nn substrate: if the full paper
architecture backprops exactly, every training result downstream can be
trusted.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.gradcheck import check_model_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def test_full_cnn_lstm_gradients(rng):
    model = nn.Sequential(
        [
            nn.Conv2D(2, 3, padding="same", name="c1"),
            nn.ReLU(),
            nn.MaxPool2D(2),
            nn.Conv2D(3, 3, padding="same", name="c2"),
            nn.ReLU(),
            nn.MaxPool2D(2),
            nn.ToSequence(),
            nn.LSTM(4, name="lstm"),
            nn.Dense(2, name="head"),
        ],
        seed=1,
    )
    x = rng.normal(size=(2, 1, 8, 8))
    y = np.array([0, 1])
    loss = nn.SoftmaxCrossEntropy()
    errors = check_model_gradients(model, x, y, loss)
    for (layer, key), err in errors.items():
        assert err < 1e-4, f"{layer}.{key}: relative error {err}"


def test_dense_stack_gradients(rng):
    model = nn.Sequential(
        [nn.Dense(5, name="d1"), nn.ReLU(), nn.Dense(3)],
        seed=2,
    )
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, 6)
    errors = check_model_gradients(model, x, y, nn.SoftmaxCrossEntropy())
    for (layer, key), err in errors.items():
        assert err < 1e-4, f"{layer}.{key}: relative error {err}"
