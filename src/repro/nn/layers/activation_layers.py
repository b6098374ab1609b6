"""Activation functions wrapped as layers."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .. import activations as F
from .base import Layer


class ReLU(Layer):
    """Rectified linear unit layer.

    The only activation on the CNN hot path, so it delegates to the
    backend (the optimized backend caches the sign mask from forward
    instead of recomputing and casting it in backward).
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.backend.relu_forward(x, self._backend_state)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.backend.relu_backward(grad_out, self._backend_state)


class LeakyReLU(Layer):
    """Leaky ReLU layer."""

    def __init__(self, alpha: float = 0.01, name: Optional[str] = None):
        super().__init__(name=name)
        self.alpha = float(alpha)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._backend_state["x"] = x
        return F.leaky_relu(x, self.alpha)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if "x" not in self._backend_state:
            raise RuntimeError("backward called before forward")
        return grad_out * F.leaky_relu_grad(self._backend_state["x"], self.alpha)

    def get_config(self) -> Dict:
        return {"name": self.name, "alpha": self.alpha}


class ELU(Layer):
    """Exponential linear unit layer."""

    def __init__(self, alpha: float = 1.0, name: Optional[str] = None):
        super().__init__(name=name)
        self.alpha = float(alpha)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._backend_state["x"] = x
        return F.elu(x, self.alpha)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if "x" not in self._backend_state:
            raise RuntimeError("backward called before forward")
        return grad_out * F.elu_grad(self._backend_state["x"], self.alpha)

    def get_config(self) -> Dict:
        return {"name": self.name, "alpha": self.alpha}


class Sigmoid(Layer):
    """Logistic sigmoid layer."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self._backend_state["y"] = F.sigmoid(x)
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if "y" not in self._backend_state:
            raise RuntimeError("backward called before forward")
        return grad_out * F.sigmoid_grad_from_output(self._backend_state["y"])


class Tanh(Layer):
    """Hyperbolic tangent layer."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self._backend_state["y"] = F.tanh(x)
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if "y" not in self._backend_state:
            raise RuntimeError("backward called before forward")
        return grad_out * F.tanh_grad_from_output(self._backend_state["y"])


class Softmax(Layer):
    """Softmax layer over the last axis.

    Prefer :class:`repro.nn.losses.SoftmaxCrossEntropy` on logits for
    training; this layer exists for inference pipelines that need
    explicit probabilities.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self._backend_state["y"] = F.softmax(x, axis=-1)
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if "y" not in self._backend_state:
            raise RuntimeError("backward called before forward")
        y = self._backend_state["y"]
        dot = np.sum(grad_out * y, axis=-1, keepdims=True)
        return y * (grad_out - dot)
