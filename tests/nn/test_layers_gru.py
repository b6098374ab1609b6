"""Tests for the GRU layer."""

import numpy as np
import pytest

from repro import nn
from repro.nn.gradcheck import check_layer_gradients
from repro.nn.layers import GRU


@pytest.fixture
def rng():
    return np.random.default_rng(51)


class TestGRUForward:
    def test_output_shapes(self, rng):
        x = rng.normal(size=(3, 5, 4))
        last = GRU(8)
        last.ensure_built(x, rng)
        assert last.forward(x).shape == (3, 8)
        seq = GRU(8, return_sequences=True)
        seq.ensure_built(x, rng)
        assert seq.forward(x).shape == (3, 5, 8)

    def test_last_of_sequence_equals_last_state(self, rng):
        x = rng.normal(size=(2, 6, 3))
        seq = GRU(4, return_sequences=True)
        last = GRU(4, return_sequences=False)
        seq.ensure_built(x, np.random.default_rng(0))
        last.ensure_built(x, np.random.default_rng(0))
        np.testing.assert_allclose(seq.forward(x)[:, -1, :], last.forward(x))

    def test_hidden_state_bounded(self, rng):
        layer = GRU(6, return_sequences=True)
        x = 10.0 * rng.normal(size=(2, 20, 3))
        layer.ensure_built(x, rng)
        assert np.all(np.abs(layer.forward(x)) < 1.0)

    def test_param_count_three_quarters_of_lstm(self, rng):
        gru = GRU(8)
        lstm = nn.LSTM(8)
        gru.build((5, 3), rng)
        lstm.build((5, 3), np.random.default_rng(0))
        assert gru.num_params == pytest.approx(0.75 * lstm.num_params, rel=0.01)

    def test_invalid_units(self):
        with pytest.raises(ValueError, match="units must be positive"):
            GRU(0)

    def test_rejects_non_sequence_input(self, rng):
        with pytest.raises(ValueError, match=r"\(T, F\)"):
            GRU(4).build((7,), rng)


class TestGRUBackward:
    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_gradients_match_numeric(self, rng, return_sequences):
        layer = GRU(4, return_sequences=return_sequences)
        x = rng.normal(size=(2, 4, 3))
        errors = check_layer_gradients(layer, x, rng, eps=1e-5)
        for key, err in errors.items():
            assert err < 1e-5, f"gradient error for {key}: {err}"

    def test_long_sequence_gradients(self, rng):
        layer = GRU(3)
        x = rng.normal(size=(1, 10, 2))
        errors = check_layer_gradients(layer, x, rng, eps=1e-5)
        for key, err in errors.items():
            assert err < 1e-5, f"gradient error for {key}: {err}"

    def test_backward_before_forward_raises(self, rng):
        layer = GRU(4)
        layer.build((5, 3), rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((2, 4)))


class TestGRUIntegration:
    def test_learns_sequence_task(self, rng):
        """GRU-based classifier must learn a simple temporal task."""
        n, t = 64, 8
        x = rng.normal(size=(n, t, 2))
        # Class depends on whether the mean of the first channel rises.
        y = (x[:, t // 2 :, 0].mean(axis=1) > x[:, : t // 2, 0].mean(axis=1)).astype(int)
        model = nn.Sequential([nn.GRU(8), nn.Dense(2)], seed=0).compile(
            nn.SoftmaxCrossEntropy(), nn.Adam(0.02)
        )
        model.fit(x, y, epochs=40, batch_size=16)
        assert model.evaluate(x, y)["accuracy"] > 0.9

    def test_checkpoint_roundtrip(self, rng, tmp_path):
        model = nn.Sequential([nn.GRU(4), nn.Dense(2)], seed=0)
        x = rng.normal(size=(3, 5, 2))
        before = model.forward(x)
        path = nn.save_model(model, tmp_path / "gru.npz")
        loaded = nn.load_model(path)
        np.testing.assert_allclose(loaded.predict(x), before, atol=1e-12)

    def test_architecture_builder_supports_gru(self):
        from repro.core import ModelConfig, build_cnn_lstm

        model = build_cnn_lstm(
            (1, 32, 4), ModelConfig(recurrent_cell="gru", lstm_units=8)
        )
        kinds = [type(l).__name__ for l in model.layers]
        assert "GRU" in kinds and "LSTM" not in kinds

    def test_architecture_builder_rejects_unknown_cell(self):
        from repro.core import ModelConfig

        with pytest.raises(ValueError, match="recurrent_cell"):
            ModelConfig(recurrent_cell="transformer")
