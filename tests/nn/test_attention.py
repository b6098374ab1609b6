"""Tests for the temporal-attention pooling layer."""

import numpy as np
import pytest

from repro import nn
from repro.nn.gradcheck import check_layer_gradients
from repro.nn.layers import TemporalAttention


@pytest.fixture
def rng():
    return np.random.default_rng(121)


class TestForward:
    def test_output_shape(self, rng):
        layer = TemporalAttention(8)
        x = rng.normal(size=(3, 6, 5))
        layer.ensure_built(x, rng)
        assert layer.forward(x).shape == (3, 5)

    def test_weights_form_distribution(self, rng):
        layer = TemporalAttention(8)
        x = rng.normal(size=(4, 7, 5))
        layer.ensure_built(x, rng)
        layer.forward(x)
        alpha = layer.attention_weights()
        assert alpha.shape == (4, 7)
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(alpha >= 0)

    def test_output_is_convex_combination(self, rng):
        """Attention output lies within the convex hull of the steps."""
        layer = TemporalAttention(4)
        x = rng.normal(size=(2, 5, 3))
        layer.ensure_built(x, rng)
        out = layer.forward(x)
        assert np.all(out <= x.max(axis=1) + 1e-12)
        assert np.all(out >= x.min(axis=1) - 1e-12)

    def test_uniform_steps_average(self, rng):
        """Identical timesteps -> uniform attention -> output == step."""
        layer = TemporalAttention(4)
        step = rng.normal(size=(1, 1, 3))
        x = np.repeat(step, 6, axis=1)
        layer.ensure_built(x, rng)
        out = layer.forward(x)
        np.testing.assert_allclose(out, step[:, 0, :], atol=1e-12)

    def test_no_weights_before_forward(self, rng):
        layer = TemporalAttention(4)
        assert layer.attention_weights() is None

    def test_rejects_non_sequence(self, rng):
        with pytest.raises(ValueError, match=r"\(T, F\)"):
            TemporalAttention(4).build((7,), rng)

    def test_invalid_units(self):
        with pytest.raises(ValueError, match="attention_units"):
            TemporalAttention(0)


class TestBackward:
    def test_gradients_match_numeric(self, rng):
        layer = TemporalAttention(4)
        x = rng.normal(size=(2, 5, 3))
        errors = check_layer_gradients(layer, x, rng, eps=1e-5)
        for key, err in errors.items():
            assert err < 1e-5, f"gradient error for {key}: {err}"

    def test_backward_before_forward_raises(self, rng):
        layer = TemporalAttention(4)
        layer.build((5, 3), rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((2, 3)))


class TestIntegration:
    def test_attention_readout_learns(self, rng):
        """LSTM + attention read-out must learn a keyed-step task where
        the informative timestep varies per example."""
        n, t, f = 96, 8, 3
        x = rng.normal(size=(n, t, f))
        # Mark one random timestep with a large key in channel 2; the
        # label is the sign of channel 0 at that timestep.
        y = np.zeros(n, dtype=int)
        for i in range(n):
            key_t = rng.integers(t)
            x[i, key_t, 2] = 5.0
            y[i] = int(x[i, key_t, 0] > 0)
        model = nn.Sequential(
            [
                nn.LSTM(12, return_sequences=True),
                nn.TemporalAttention(8),
                nn.Dense(2),
            ],
            seed=0,
        ).compile(nn.SoftmaxCrossEntropy(), nn.Adam(0.02))
        model.fit(x, y, epochs=60, batch_size=16)
        assert model.evaluate(x, y)["accuracy"] > 0.85

    def test_checkpoint_roundtrip(self, rng, tmp_path):
        model = nn.Sequential(
            [nn.LSTM(4, return_sequences=True), nn.TemporalAttention(4), nn.Dense(2)],
            seed=0,
        )
        x = rng.normal(size=(3, 5, 2))
        before = model.forward(x)
        path = nn.save_model(model, tmp_path / "attn.npz")
        loaded = nn.load_model(path)
        np.testing.assert_allclose(loaded.predict(x), before, atol=1e-12)
