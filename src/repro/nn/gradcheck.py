"""Numerical gradient checking for layers and whole models.

Central differences against the analytic backward pass.  Used in the
test suite to prove every layer's backprop is exact (the foundation for
trusting the CNN-LSTM training results downstream).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .layers.base import Layer
from .losses import SoftmaxCrossEntropy
from .model import Sequential


def numeric_grad(
    f: Callable[[], float], array: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``array`` in place."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"], op_flags=["readwrite"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        f_plus = f()
        array[idx] = original - eps
        f_minus = f()
        array[idx] = original
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
        it.iternext()
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max relative error between two gradient tensors."""
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def check_layer_gradients(
    layer: Layer,
    x: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    eps: float = 1e-6,
) -> Dict[str, float]:
    """Compare analytic vs numeric grads for a layer under a random loss.

    The surrogate loss is ``sum(out * R)`` with fixed random ``R``, which
    exercises every output element.  Returns max relative error per
    parameter plus ``'input'`` for dL/dx.
    """
    rng = rng or np.random.default_rng(0)
    layer.training = True
    layer.ensure_built(x, rng)
    out = layer.forward(x)
    weights = rng.normal(size=out.shape)

    def loss_fn() -> float:
        return float(np.sum(layer.forward(x) * weights))

    # Analytic gradients.
    layer.forward(x)
    grad_in = layer.backward(weights)

    errors: Dict[str, float] = {}
    analytic_param_grads = {k: v.copy() for k, v in layer.grads.items()}
    for key, param in layer.params.items():
        numeric = numeric_grad(loss_fn, param, eps=eps)
        errors[key] = relative_error(analytic_param_grads[key], numeric)

    x_work = x.copy()

    def loss_fn_x() -> float:
        return float(np.sum(layer.forward(x_work) * weights))

    numeric_x = numeric_grad(loss_fn_x, x_work, eps=eps)
    errors["input"] = relative_error(grad_in, numeric_x)
    return errors


def check_model_gradients(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    loss: SoftmaxCrossEntropy,
    eps: float = 1e-6,
) -> Dict[Tuple[str, str], float]:
    """End-to-end gradient check through an entire Sequential model."""
    model.forward(x, training=True)  # build

    def loss_fn() -> float:
        return loss.loss(model.forward(x, training=True), y)

    logits = model.forward(x, training=True)
    model.backward(loss.grad(logits, y))
    analytic = {
        (layer.name, key): layer.grads[key].copy()
        for layer in model.layers
        for key in layer.params
    }

    errors: Dict[Tuple[str, str], float] = {}
    for layer in model.layers:
        for key, param in layer.params.items():
            numeric = numeric_grad(loss_fn, param, eps=eps)
            errors[(layer.name, key)] = relative_error(
                analytic[(layer.name, key)], numeric
            )
    return errors
