"""Gated recurrent unit (Cho et al., 2014).

Included as an alternative to the paper's LSTM so the architecture
choice can be ablated (GRU has ~25 % fewer parameters per unit).
Gate layout: columns ordered update (z), reset (r), candidate (h~).
The fused time-step kernels live in :mod:`repro.nn.backends`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..initializers import glorot_uniform, orthogonal
from .base import Layer


class GRU(Layer):
    """Gated recurrent unit layer over (N, T, F) sequences."""

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
            raise ValueError(f"GRU expects (T, F) inputs, got {input_shape}")
        features = int(input_shape[1])
        h = self.units
        self.params["W"] = glorot_uniform((features, 3 * h), rng)
        self.params["U"] = orthogonal((h, 3 * h), rng)
        self.params["b"] = np.zeros(3 * h, dtype=np.float64)
        self.zero_grads()
        self.built = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        hs = self.backend.gru_forward(
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
        d_x, d_w, d_u, d_b = self.backend.gru_backward(
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
