"""Functional activations and their derivatives.

Each activation ``f`` comes with a derivative helper.  Derivatives are
expressed in terms of whichever quantity makes backprop cheapest (the
output for sigmoid/tanh, the input for ReLU-family).
"""

from __future__ import annotations

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit: max(0, x)."""
    return np.maximum(x, 0.0)


def leaky_relu(x: np.ndarray, alpha: float = 0.01) -> np.ndarray:
    """Leaky ReLU: x for x>0, alpha*x otherwise."""
    return np.where(x > 0.0, x, alpha * x)


def leaky_relu_grad(x: np.ndarray, alpha: float = 0.01) -> np.ndarray:
    """Derivative of leaky ReLU w.r.t. its input."""
    return np.where(x > 0.0, 1.0, alpha).astype(x.dtype)


def elu(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Exponential linear unit."""
    return np.where(x > 0.0, x, alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))


def elu_grad(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Derivative of ELU w.r.t. its input."""
    return np.where(x > 0.0, 1.0, alpha * np.exp(np.minimum(x, 0.0)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid.

    Preserves floating input dtypes (``float32`` in stays ``float32``
    out, for the optimized backend's serving path); non-float inputs
    promote to ``float64`` as before.
    """
    x = np.asarray(x)
    dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    out = np.empty_like(x, dtype=dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_grad_from_output(y: np.ndarray) -> np.ndarray:
    """Derivative of sigmoid expressed via its output: y * (1 - y)."""
    return y * (1.0 - y)


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(x)


def tanh_grad_from_output(y: np.ndarray) -> np.ndarray:
    """Derivative of tanh expressed via its output: 1 - y**2."""
    return 1.0 - y * y


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
