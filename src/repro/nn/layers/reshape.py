"""Shape-manipulation layers: Flatten and the CNN→LSTM bridge."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import Layer


class Flatten(Layer):
    """Collapse all non-batch dimensions into one."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._backend_state["x_shape"] = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if "x_shape" not in self._backend_state:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._backend_state["x_shape"])

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)


class ToSequence(Layer):
    """Bridge a conv feature map (N, C, H, W) into an LSTM sequence.

    The W (time-window) axis becomes the sequence axis and each step's
    features are the flattened (C, H) slice, i.e. output shape is
    ``(N, W, C*H)``.  This mirrors how the CLEAR CNN-LSTM treats the
    feature-map window axis as time (Fig. 2 of the paper).
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"ToSequence expects (N, C, H, W) inputs, got {x.shape}")
        self._backend_state["x_shape"] = x.shape
        n, c, h, w = x.shape
        return x.transpose(0, 3, 1, 2).reshape(n, w, c * h)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if "x_shape" not in self._backend_state:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._backend_state["x_shape"]
        return grad_out.reshape(n, w, c, h).transpose(0, 2, 3, 1)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        return (w, c * h)
