"""Fully-connected layer."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..initializers import glorot_uniform, zeros
from .base import Layer


class Dense(Layer):
    """Affine transform ``y = x @ W + b``.

    Parameters
    ----------
    units:
        Output dimensionality.
    use_bias:
        Whether to add the learned bias ``b``.
    """

    def __init__(
        self,
        units: int,
        use_bias: bool = True,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        self.units = int(units)
        self.use_bias = bool(use_bias)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 1:
            raise ValueError(
                f"Dense expects flat inputs of shape (features,), got {input_shape}"
            )
        in_features = int(input_shape[0])
        self.params["W"] = glorot_uniform((in_features, self.units), rng)
        if self.use_bias:
            self.params["b"] = zeros((self.units,), rng)
        self.zero_grads()
        self.built = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.backend.dense_forward(
            x,
            self.params["W"],
            self.params["b"] if self.use_bias else None,
            self._backend_state,
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        dx, dw, db = self.backend.dense_backward(
            grad_out, self.params["W"], self._backend_state
        )
        self.grads["W"] = dw
        if self.use_bias:
            self.grads["b"] = db
        return dx

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.units,)

    def get_config(self) -> Dict:
        return {"name": self.name, "units": self.units, "use_bias": self.use_bias}
