"""Inverted dropout."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .base import Layer


class Dropout(Layer):
    """Inverted dropout: scale kept units by 1/(1-rate) during training.

    At evaluation time (``layer.training == False``) the layer is the
    identity, so no test-time rescaling is needed.
    """

    def __init__(
        self, rate: float, seed: Optional[int] = None, name: Optional[str] = None
    ):
        super().__init__(name=name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._backend_state.pop("mask", None)
            return x
        keep = 1.0 - self.rate
        # The mask adopts x's dtype so float32 activations are not
        # silently upcast mid-network (values are unchanged for float64).
        mask = (self._rng.random(x.shape) < keep).astype(x.dtype) / np.asarray(
            keep, dtype=x.dtype
        )
        self._backend_state["mask"] = mask
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask = self._backend_state.get("mask")
        if mask is None:
            return grad_out
        return grad_out * mask

    def get_config(self) -> Dict:
        # The seed must round-trip through checkpoints: rebuilding this
        # layer from config without it would re-seed from OS entropy and
        # make fine-tuning of a restored model nondeterministic.
        return {"name": self.name, "rate": self.rate, "seed": self.seed}
