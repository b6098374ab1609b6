"""Tests for the training history callback."""

import numpy as np
import pytest

from repro import nn


def make_blobs(rng, n=40):
    half = n // 2
    x = np.concatenate(
        [rng.normal([-2, 0], 1.0, size=(half, 2)), rng.normal([2, 0], 1.0, size=(half, 2))]
    )
    y = np.array([0] * half + [1] * half)
    return x, y


@pytest.fixture
def rng():
    return np.random.default_rng(101)


class TestHistory:
    def test_series_extraction(self, rng):
        x, y = make_blobs(rng)
        model = nn.Sequential([nn.Dense(2)], seed=0).compile(
            nn.SoftmaxCrossEntropy(), nn.Adam()
        )
        history = model.fit(x, y, epochs=4)
        assert len(history.series("loss")) == 4
        assert history.series("nonexistent") == []

    def test_history_resets_between_fits(self, rng):
        x, y = make_blobs(rng)
        model = nn.Sequential([nn.Dense(2)], seed=0).compile(
            nn.SoftmaxCrossEntropy(), nn.Adam()
        )
        model.fit(x, y, epochs=3)
        model.fit(x, y, epochs=2)
        assert len(model.history.epochs) == 2
