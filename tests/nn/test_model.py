"""Tests for the Sequential model: training, evaluation, callbacks, freezing."""

import numpy as np
import pytest

from repro import nn


def make_blobs(rng, n=60, separation=3.0):
    """Two linearly separable Gaussian blobs in 2D."""
    half = n // 2
    x = np.concatenate(
        [
            rng.normal([-separation, 0], 1.0, size=(half, 2)),
            rng.normal([separation, 0], 1.0, size=(half, 2)),
        ]
    )
    y = np.array([0] * half + [1] * half)
    return x, y


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestTraining:
    def test_learns_linearly_separable_data(self, rng):
        x, y = make_blobs(rng)
        model = nn.Sequential(
            [nn.Dense(8), nn.ReLU(), nn.Dense(2)], seed=0
        ).compile("softmax_cross_entropy", nn.Adam(lr=0.05))
        model.fit(x, y, epochs=30, batch_size=16)
        assert model.evaluate(x, y)["accuracy"] > 0.95

    def test_loss_decreases(self, rng):
        x, y = make_blobs(rng)
        model = nn.Sequential([nn.Dense(4), nn.Tanh(), nn.Dense(2)], seed=0)
        model.compile("softmax_cross_entropy", nn.SGD(lr=0.1))
        history = model.fit(x, y, epochs=20, batch_size=16)
        losses = history.series("loss")
        assert losses[-1] < losses[0]

    def test_epoch_metrics_recorded(self, rng):
        x, y = make_blobs(rng)
        model = nn.Sequential([nn.Dense(2)], seed=0).compile()
        history = model.fit(x, y, epochs=3)
        assert set(history.epochs[0]) == {"loss", "accuracy", "epoch"}

    def test_fit_without_compile_raises(self, rng):
        model = nn.Sequential([nn.Dense(2)])
        with pytest.raises(RuntimeError, match="compile"):
            model.fit(np.zeros((4, 3)), np.zeros(4))

    def test_mismatched_batch_raises(self):
        model = nn.Sequential([nn.Dense(2)]).compile()
        with pytest.raises(ValueError, match="disagree"):
            model.fit(np.zeros((4, 3)), np.zeros(5))

    def test_empty_dataset_raises(self):
        model = nn.Sequential([nn.Dense(2)]).compile()
        with pytest.raises(ValueError, match="empty"):
            model.fit(np.zeros((0, 3)), np.zeros(0))

    def test_deterministic_given_seed(self, rng):
        x, y = make_blobs(rng)

        def train():
            m = nn.Sequential([nn.Dense(4), nn.ReLU(), nn.Dense(2)], seed=42)
            m.compile("softmax_cross_entropy", nn.Adam(lr=0.01))
            m.fit(x, y, epochs=3, batch_size=8)
            return m.predict(x)

        np.testing.assert_array_equal(train(), train())


class TestPrediction:
    def test_predict_batched_equals_unbatched(self, rng):
        x, y = make_blobs(rng, n=40)
        model = nn.Sequential([nn.Dense(2)], seed=0).compile()
        model.fit(x, y, epochs=1)
        np.testing.assert_allclose(
            model.predict(x, batch_size=7), model.predict(x, batch_size=64)
        )

    def test_predict_classes(self, rng):
        x, y = make_blobs(rng)
        model = nn.Sequential([nn.Dense(2)], seed=0).compile(
            optimizer=nn.Adam(lr=0.1)
        )
        model.fit(x, y, epochs=20)
        preds = model.predict_classes(x)
        assert preds.shape == y.shape
        assert set(np.unique(preds)) <= {0, 1}


class TestCallbacks:
    def test_early_stopping_halts(self, rng):
        x, y = make_blobs(rng)
        model = nn.Sequential([nn.Dense(2)], seed=0).compile(
            optimizer=nn.Adam(lr=0.2)
        )
        stopper = nn.EarlyStopping(monitor="loss", patience=1, min_delta=10.0)
        history = model.fit(x, y, epochs=50, callbacks=[stopper])
        # min_delta=10 means "never improves", so it stops after patience+2.
        assert len(history.epochs) <= 4

    def test_early_stopping_restores_best(self, rng):
        x, y = make_blobs(rng)
        model = nn.Sequential([nn.Dense(2)], seed=0).compile(
            optimizer=nn.Adam(lr=0.5)
        )
        stopper = nn.EarlyStopping(
            monitor="loss", patience=2, restore_best=True, mode="min"
        )
        model.fit(x, y, epochs=10, callbacks=[stopper])
        best_loss = stopper.best
        final = model.loss.loss(model.predict(x), y)
        assert final == pytest.approx(best_loss, rel=0.2)

    def test_best_weights_tracks_max_accuracy(self, rng):
        x, y = make_blobs(rng)
        model = nn.Sequential([nn.Dense(2)], seed=0).compile(
            optimizer=nn.Adam(lr=0.05)
        )
        tracker = nn.BestWeights()  # monitors training accuracy, max
        model.fit(x, y, epochs=5, callbacks=[tracker])
        assert tracker.best is not None
        assert 0.0 <= tracker.best <= 1.0


class TestWeightsRoundtrip:
    def test_get_set_weights(self, rng):
        x, y = make_blobs(rng)
        model = nn.Sequential([nn.Dense(4), nn.ReLU(), nn.Dense(2)], seed=0)
        model.compile()
        model.fit(x, y, epochs=2)
        weights = model.get_weights()
        before = model.predict(x)
        model.fit(x, y, epochs=2)  # drift
        model.set_weights(weights)
        np.testing.assert_allclose(model.predict(x), before)

    def test_set_weights_shape_mismatch_raises(self, rng):
        model = nn.Sequential([nn.Dense(2)], seed=0).compile()
        model.forward(np.zeros((1, 3)))
        weights = model.get_weights()
        weights[0]["W"] = np.zeros((5, 5))
        with pytest.raises(ValueError, match="shape mismatch"):
            model.set_weights(weights)

    def test_set_weights_wrong_length_raises(self):
        model = nn.Sequential([nn.Dense(2)])
        with pytest.raises(ValueError, match="entries"):
            model.set_weights([])


class TestFreezing:
    def test_freeze_first_n(self, rng):
        x, y = make_blobs(rng)
        model = nn.Sequential([nn.Dense(4), nn.ReLU(), nn.Dense(2)], seed=0)
        model.compile(optimizer=nn.Adam(lr=0.1))
        model.fit(x, y, epochs=1)
        frozen_w = model.layers[0].params["W"].copy()
        model.freeze_layers(1)
        model.fit(x, y, epochs=3)
        np.testing.assert_array_equal(model.layers[0].params["W"], frozen_w)

    def test_freeze_by_name(self, rng):
        layer = nn.Dense(4, name="backbone")
        model = nn.Sequential([layer, nn.ReLU(), nn.Dense(2)], seed=0).compile()
        model.freeze_layers(["backbone"])
        assert layer.frozen
        assert not model.layers[2].frozen

    def test_unfreeze_all(self):
        model = nn.Sequential([nn.Dense(2), nn.Dense(2)])
        model.freeze_layers(2)
        model.unfreeze_all()
        assert not any(l.frozen for l in model.layers)


class TestIntrospection:
    def test_summary_contains_layers_and_total(self):
        model = nn.Sequential([nn.Dense(4, name="d1"), nn.Dense(2, name="d2")])
        model.build((3,))
        text = model.summary((3,))
        assert "d1" in text and "d2" in text
        assert f"total params: {model.num_params}" in text

    def test_num_params(self):
        model = nn.Sequential([nn.Dense(4), nn.Dense(2)])
        model.build((3,))
        assert model.num_params == (3 * 4 + 4) + (4 * 2 + 2)

    def test_minibatch_iterator_covers_all(self):
        batches = list(nn.iterate_minibatches(10, 3, shuffle=False))
        flat = np.concatenate(batches)
        np.testing.assert_array_equal(np.sort(flat), np.arange(10))

    def test_minibatch_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(nn.iterate_minibatches(10, 0))
