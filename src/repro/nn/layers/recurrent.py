"""Recurrent layers: LSTM and a simple (Elman) RNN.

Inputs are batches of sequences, shape ``(N, T, F)``.  Backpropagation
through time is exact and unrolled over the full sequence.  The fused
time-step kernels (and their stacked ``(N, T, ·)`` caches, which
replaced the old per-step dict lists and their redundant
``h_prev``/``c_prev`` copies) live in :mod:`repro.nn.backends`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..initializers import glorot_uniform, orthogonal
from .base import Layer


class LSTM(Layer):
    """Long short-term memory layer (Hochreiter & Schmidhuber, 1997).

    Gate layout follows the Keras convention: the hidden-size-4 kernel
    columns are ordered input (i), forget (f), cell candidate (g),
    output (o).  Forget-gate bias is initialized to 1.0, the standard
    trick for stable early training.

    Parameters
    ----------
    units:
        Hidden state dimensionality.
    return_sequences:
        If True the output is the full hidden sequence ``(N, T, units)``;
        otherwise only the last hidden state ``(N, units)``.
    """

    def __init__(
        self,
        units: int,
        return_sequences: bool = False,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        self.units = int(units)
        self.return_sequences = bool(return_sequences)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 2:
            raise ValueError(f"LSTM expects (T, F) inputs, got {input_shape}")
        features = int(input_shape[1])
        h = self.units
        self.params["W"] = glorot_uniform((features, 4 * h), rng)
        self.params["U"] = orthogonal((h, 4 * h), rng)
        bias = np.zeros(4 * h, dtype=np.float64)
        bias[h : 2 * h] = 1.0  # forget gate bias
        self.params["b"] = bias
        self.zero_grads()
        self.built = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        hs = self.backend.lstm_forward(
            x,
            self.params["W"],
            self.params["U"],
            self.params["b"],
            self._backend_state,
        )
        return hs if self.return_sequences else hs[:, -1, :]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        hs = self._backend_state.get("hs")
        if hs is None:
            raise RuntimeError("backward called before forward")
        if self.return_sequences:
            grad_hs = grad_out
        else:
            grad_hs = np.zeros(hs.shape, dtype=grad_out.dtype)
            grad_hs[:, -1, :] = grad_out
        d_x, d_w, d_u, d_b = self.backend.lstm_backward(
            grad_hs, self.params["W"], self.params["U"], self._backend_state
        )
        self.grads["W"] = d_w
        self.grads["U"] = d_u
        self.grads["b"] = d_b
        return d_x

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        t, _ = input_shape
        if self.return_sequences:
            return (t, self.units)
        return (self.units,)

    def get_config(self) -> Dict:
        return {
            "name": self.name,
            "units": self.units,
            "return_sequences": self.return_sequences,
        }


class SimpleRNN(Layer):
    """Elman RNN with tanh non-linearity; a lightweight LSTM alternative."""

    def __init__(
        self,
        units: int,
        return_sequences: bool = False,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        self.units = int(units)
        self.return_sequences = bool(return_sequences)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 2:
            raise ValueError(f"SimpleRNN expects (T, F) inputs, got {input_shape}")
        features = int(input_shape[1])
        self.params["W"] = glorot_uniform((features, self.units), rng)
        self.params["U"] = orthogonal((self.units, self.units), rng)
        self.params["b"] = np.zeros(self.units, dtype=np.float64)
        self.zero_grads()
        self.built = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        hs = self.backend.rnn_forward(
            x,
            self.params["W"],
            self.params["U"],
            self.params["b"],
            self._backend_state,
        )
        return hs if self.return_sequences else hs[:, -1, :]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        hs = self._backend_state.get("hs")
        if hs is None:
            raise RuntimeError("backward called before forward")
        if self.return_sequences:
            grad_hs = grad_out
        else:
            grad_hs = np.zeros(hs.shape, dtype=grad_out.dtype)
            grad_hs[:, -1, :] = grad_out
        d_x, d_w, d_u, d_b = self.backend.rnn_backward(
            grad_hs, self.params["W"], self.params["U"], self._backend_state
        )
        self.grads["W"] = d_w
        self.grads["U"] = d_u
        self.grads["b"] = d_b
        return d_x

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        t, _ = input_shape
        if self.return_sequences:
            return (t, self.units)
        return (self.units,)

    def get_config(self) -> Dict:
        return {
            "name": self.name,
            "units": self.units,
            "return_sequences": self.return_sequences,
        }
