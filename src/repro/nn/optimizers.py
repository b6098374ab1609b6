"""The Adam optimizer, operating on the Layer params/grads protocol.

Adam keeps per-parameter moments keyed by ``(layer_name, param name)``
so layers can be frozen between calls without losing moments, which
matters for the CLEAR fine-tuning stage.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .layers.base import Layer


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction.

    Parameters
    ----------
    lr:
        Learning rate, a positive float.
    clipnorm:
        Optional global gradient-norm clip applied before each step.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float = 0.001, clipnorm: Optional[float] = None):
        lr = float(lr)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.clipnorm = clipnorm
        self.iterations = 0
        self._slots: Dict[Tuple[str, str, str], np.ndarray] = {}

    def slot(self, layer: Layer, key: str, slot_name: str) -> np.ndarray:
        """Get (creating if needed) optimizer state for one parameter."""
        slot_key = (layer.name, key, slot_name)
        if slot_key not in self._slots:
            self._slots[slot_key] = np.zeros_like(layer.params[key])
        return self._slots[slot_key]

    def _clip(self, layers: Iterable[Layer]) -> None:
        if self.clipnorm is None:
            return
        total = 0.0
        grads = []
        for layer in layers:
            for key in layer.trainable_params:
                g = layer.grads.get(key)
                if g is not None:
                    grads.append(g)
                    total += float(np.sum(g * g))
        norm = np.sqrt(total)
        if norm > self.clipnorm and norm > 0.0:
            scale = self.clipnorm / norm
            for g in grads:
                g *= scale

    def step(self, layers: Iterable[Layer]) -> None:
        """Apply one update to every trainable parameter."""
        layers = [l for l in layers if l.trainable_params]
        self._clip(layers)
        for layer in layers:
            for key in layer.trainable_params:
                grad = layer.grads.get(key)
                if grad is None:
                    continue
                self._update_param(layer, key, grad)
        self.iterations += 1

    def _update_param(self, layer: Layer, key: str, grad: np.ndarray) -> None:
        t = self.iterations + 1
        m = self.slot(layer, key, "m")
        v = self.slot(layer, key, "v")
        m_new = self.beta1 * m + (1.0 - self.beta1) * grad
        v_new = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        self._slots[(layer.name, key, "m")] = m_new
        self._slots[(layer.name, key, "v")] = v_new
        m_hat = m_new / (1.0 - self.beta1**t)
        v_hat = v_new / (1.0 - self.beta2**t)
        layer.params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def reset(self) -> None:
        """Drop all slot state (e.g. when starting fine-tuning afresh)."""
        self._slots.clear()
        self.iterations = 0
