"""Tests for Adam: convergence on a quadratic, slots, clipping, freezing."""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.optimizers import Adam


def make_quadratic_layer(rng, target):
    """Dense layer whose W we drive toward ``target`` with dL/dW = W - target."""
    layer = Dense(target.shape[1], use_bias=False)
    layer.build((target.shape[0],), rng)
    return layer


def quadratic_step(layer, target):
    layer.grads["W"] = layer.params["W"] - target


@pytest.fixture
def rng():
    return np.random.default_rng(31)


@pytest.fixture
def target(rng):
    return rng.normal(size=(4, 3))


class TestConvergence:
    @pytest.mark.parametrize(
        "opt,steps,atol", [(Adam(lr=0.1), 300, 1e-3)], ids=["adam"]
    )
    def test_minimizes_quadratic(self, rng, target, opt, steps, atol):
        layer = make_quadratic_layer(rng, target)
        for _ in range(steps):
            quadratic_step(layer, target)
            opt.step([layer])
        np.testing.assert_allclose(layer.params["W"], target, atol=atol)

    def test_adam_bias_correction_first_step(self, rng, target):
        """First Adam step should be ~lr * sign(grad), thanks to bias correction."""
        layer = make_quadratic_layer(rng, target)
        w0 = layer.params["W"].copy()
        opt = Adam(lr=0.1)
        quadratic_step(layer, target)
        grad = layer.grads["W"].copy()
        opt.step([layer])
        delta = layer.params["W"] - w0
        np.testing.assert_allclose(delta, -0.1 * np.sign(grad), atol=1e-6)


class TestFreezing:
    def test_frozen_layer_not_updated(self, rng, target):
        layer = make_quadratic_layer(rng, target)
        layer.freeze()
        w0 = layer.params["W"].copy()
        opt = Adam(lr=0.5)
        quadratic_step(layer, target)
        opt.step([layer])
        np.testing.assert_array_equal(layer.params["W"], w0)

    def test_unfreeze_resumes_updates(self, rng, target):
        layer = make_quadratic_layer(rng, target)
        layer.freeze()
        opt = Adam(lr=0.5)
        quadratic_step(layer, target)
        opt.step([layer])
        layer.unfreeze()
        w0 = layer.params["W"].copy()
        quadratic_step(layer, target)
        opt.step([layer])
        assert not np.array_equal(layer.params["W"], w0)

    def test_adam_slots_survive_freezing(self, rng, target):
        """Moment slots must persist across a freeze/unfreeze cycle."""
        layer = make_quadratic_layer(rng, target)
        opt = Adam(lr=0.05)
        quadratic_step(layer, target)
        opt.step([layer])
        m_before = opt.slot(layer, "W", "m").copy()
        layer.freeze()
        opt.step([layer])
        layer.unfreeze()
        np.testing.assert_array_equal(opt.slot(layer, "W", "m"), m_before)


class TestGradientClipping:
    def test_clipnorm_scales_large_gradients(self, rng, target):
        layer = make_quadratic_layer(rng, target)
        opt = Adam(lr=1.0, clipnorm=0.001)
        layer.grads["W"] = 1e6 * np.ones_like(layer.params["W"])
        opt.step([layer])
        # The clip rescales the gradient in place before the update.
        assert np.linalg.norm(layer.grads["W"]) == pytest.approx(0.001, rel=1e-6)
        np.testing.assert_allclose(
            opt.slot(layer, "W", "m"), 0.1 * layer.grads["W"], rtol=1e-12
        )

    def test_small_gradients_untouched(self, rng, target):
        layer = make_quadratic_layer(rng, target)
        opt = Adam(lr=1.0, clipnorm=100.0)
        g = 0.01 * np.ones_like(layer.params["W"])
        layer.grads["W"] = g.copy()
        opt.step([layer])
        np.testing.assert_array_equal(layer.grads["W"], g)
        np.testing.assert_allclose(opt.slot(layer, "W", "m"), 0.1 * g, rtol=1e-12)


class TestSchedulesAndState:
    def test_reset_clears_slots_and_iterations(self, rng, target):
        layer = make_quadratic_layer(rng, target)
        opt = Adam(lr=0.1)
        quadratic_step(layer, target)
        opt.step([layer])
        assert opt.iterations == 1
        opt.reset()
        assert opt.iterations == 0
        assert np.all(opt.slot(layer, "W", "m") == 0.0)


class TestValidationAndRegistry:
    @pytest.mark.parametrize("opt_cls", [Adam])
    @pytest.mark.parametrize("lr", [0.0, -0.1])
    def test_non_positive_lr_rejected(self, opt_cls, lr):
        with pytest.raises(ValueError, match="learning rate must be positive"):
            opt_cls(lr=lr)

