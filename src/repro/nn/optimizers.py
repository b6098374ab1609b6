"""First-order optimizers operating on the Layer params/grads protocol.

Optimizers keep per-parameter slot state keyed by ``(layer_name, param
name)`` so layers can be frozen/unfrozen between calls without losing
moments, which matters for the CLEAR fine-tuning stage.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Union

import numpy as np

from .layers.base import Layer


class Optimizer:
    """Base optimizer.

    Parameters
    ----------
    lr:
        Learning rate, a positive float.
    clipnorm:
        Optional global gradient-norm clip applied before each step.
    weight_decay:
        Decoupled L2 weight decay (AdamW-style) applied to all params.
    """

    def __init__(
        self,
        lr: float = 0.01,
        clipnorm: Optional[float] = None,
        weight_decay: float = 0.0,
    ):
        lr = float(lr)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.clipnorm = clipnorm
        self.weight_decay = float(weight_decay)
        self.iterations = 0
        self._slots: Dict[Tuple[str, str, str], np.ndarray] = {}

    # -- slot state ------------------------------------------------------
    def slot(self, layer: Layer, key: str, slot_name: str) -> np.ndarray:
        """Get (creating if needed) optimizer state for one parameter."""
        slot_key = (layer.name, key, slot_name)
        if slot_key not in self._slots:
            self._slots[slot_key] = np.zeros_like(layer.params[key])
        return self._slots[slot_key]

    def set_slot(self, layer: Layer, key: str, slot_name: str, value: np.ndarray):
        self._slots[(layer.name, key, slot_name)] = value

    # -- stepping --------------------------------------------------------
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
        lr = self.lr
        for layer in layers:
            for key in layer.trainable_params:
                grad = layer.grads.get(key)
                if grad is None:
                    continue
                if self.weight_decay:
                    layer.params[key] *= 1.0 - lr * self.weight_decay
                self._update_param(layer, key, grad, lr)
        self.iterations += 1

    def _update_param(
        self, layer: Layer, key: str, grad: np.ndarray, lr: float
    ) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop all slot state (e.g. when starting fine-tuning afresh)."""
        self._slots.clear()
        self.iterations = 0


class SGD(Optimizer):
    """Stochastic gradient descent with optional (Nesterov) momentum."""

    def __init__(
        self,
        lr: float = 0.01,
        momentum: float = 0.0,
        nesterov: bool = False,
        clipnorm: Optional[float] = None,
        weight_decay: float = 0.0,
    ):
        super().__init__(lr=lr, clipnorm=clipnorm, weight_decay=weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = float(momentum)
        self.nesterov = bool(nesterov)

    def _update_param(self, layer, key, grad, lr):
        if self.momentum == 0.0:
            layer.params[key] -= lr * grad
            return
        v = self.slot(layer, key, "velocity")
        v_new = self.momentum * v - lr * grad
        self.set_slot(layer, key, "velocity", v_new)
        if self.nesterov:
            layer.params[key] += self.momentum * v_new - lr * grad
        else:
            layer.params[key] += v_new


class RMSProp(Optimizer):
    """RMSProp (Tieleman & Hinton, 2012)."""

    def __init__(
        self,
        lr: float = 0.001,
        rho: float = 0.9,
        eps: float = 1e-8,
        clipnorm: Optional[float] = None,
        weight_decay: float = 0.0,
    ):
        super().__init__(lr=lr, clipnorm=clipnorm, weight_decay=weight_decay)
        self.rho = float(rho)
        self.eps = float(eps)

    def _update_param(self, layer, key, grad, lr):
        acc = self.slot(layer, key, "sq")
        acc_new = self.rho * acc + (1.0 - self.rho) * grad * grad
        self.set_slot(layer, key, "sq", acc_new)
        layer.params[key] -= lr * grad / (np.sqrt(acc_new) + self.eps)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        clipnorm: Optional[float] = None,
        weight_decay: float = 0.0,
    ):
        super().__init__(lr=lr, clipnorm=clipnorm, weight_decay=weight_decay)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)

    def _update_param(self, layer, key, grad, lr):
        t = self.iterations + 1
        m = self.slot(layer, key, "m")
        v = self.slot(layer, key, "v")
        m_new = self.beta1 * m + (1.0 - self.beta1) * grad
        v_new = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        self.set_slot(layer, key, "m", m_new)
        self.set_slot(layer, key, "v", v_new)
        m_hat = m_new / (1.0 - self.beta1**t)
        v_hat = v_new / (1.0 - self.beta2**t)
        layer.params[key] -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


_REGISTRY = {"sgd": SGD, "rmsprop": RMSProp, "adam": Adam}


def get(name_or_opt: Union[str, Optimizer]) -> Optimizer:
    """Resolve an optimizer from a name (with defaults) or pass through."""
    if isinstance(name_or_opt, Optimizer):
        return name_or_opt
    try:
        return _REGISTRY[name_or_opt]()
    except KeyError:
        raise ValueError(
            f"Unknown optimizer {name_or_opt!r}; known: {sorted(_REGISTRY)}"
        ) from None
