"""Tests for optimizers: convergence on quadratics, slots, clipping, freezing."""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.optimizers import SGD, Adam, RMSProp, get


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
        "opt,steps,atol",
        [
            (SGD(lr=0.5), 300, 1e-3),
            (SGD(lr=0.2, momentum=0.9), 300, 1e-3),
            (SGD(lr=0.2, momentum=0.9, nesterov=True), 300, 1e-3),
            # RMSProp's normalized steps oscillate at ~lr near the optimum,
            # so its terminal error is bounded by the learning rate.
            (RMSProp(lr=0.01), 800, 0.05),
            (Adam(lr=0.1), 300, 1e-3),
        ],
        ids=["sgd", "momentum", "nesterov", "rmsprop", "adam"],
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
        opt = SGD(lr=0.5)
        quadratic_step(layer, target)
        opt.step([layer])
        np.testing.assert_array_equal(layer.params["W"], w0)

    def test_unfreeze_resumes_updates(self, rng, target):
        layer = make_quadratic_layer(rng, target)
        layer.freeze()
        opt = SGD(lr=0.5)
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
        opt = SGD(lr=1.0, clipnorm=0.001)
        w0 = layer.params["W"].copy()
        layer.grads["W"] = 1e6 * np.ones_like(w0)
        opt.step([layer])
        moved = np.linalg.norm(layer.params["W"] - w0)
        assert moved == pytest.approx(0.001, rel=1e-6)

    def test_small_gradients_untouched(self, rng, target):
        layer = make_quadratic_layer(rng, target)
        opt = SGD(lr=1.0, clipnorm=100.0)
        g = 0.01 * np.ones_like(layer.params["W"])
        layer.grads["W"] = g.copy()
        w0 = layer.params["W"].copy()
        opt.step([layer])
        np.testing.assert_allclose(layer.params["W"], w0 - g, atol=1e-12)


class TestWeightDecay:
    def test_decay_shrinks_weights(self, rng, target):
        layer = make_quadratic_layer(rng, target)
        opt = SGD(lr=0.1, weight_decay=0.5)
        layer.grads["W"] = np.zeros_like(layer.params["W"])
        w0 = layer.params["W"].copy()
        opt.step([layer])
        np.testing.assert_allclose(layer.params["W"], w0 * (1 - 0.1 * 0.5))


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
    @pytest.mark.parametrize("opt_cls", [SGD, RMSProp, Adam])
    @pytest.mark.parametrize("lr", [0.0, -0.1])
    def test_non_positive_lr_rejected(self, opt_cls, lr):
        with pytest.raises(ValueError, match="learning rate must be positive"):
            opt_cls(lr=lr)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError, match="momentum"):
            SGD(momentum=1.5)

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError, match="nesterov"):
            SGD(momentum=0.0, nesterov=True)

    def test_get_by_name(self):
        assert isinstance(get("adam"), Adam)

    def test_get_passthrough(self):
        opt = RMSProp()
        assert get(opt) is opt

    def test_get_unknown_raises(self):
        with pytest.raises(ValueError, match="Unknown optimizer"):
            get("lion")
