"""The ReLU activation layer."""

from __future__ import annotations

import numpy as np

from .base import Layer


class ReLU(Layer):
    """Rectified linear unit layer.

    Delegates to the backend: the optimized backend caches the sign mask
    from forward instead of recomputing and casting it in backward.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.backend.relu_forward(x, self._backend_state)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.backend.relu_backward(grad_out, self._backend_state)
