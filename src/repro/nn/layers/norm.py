"""Batch normalization (Ioffe & Szegedy, 2015) for dense and conv inputs."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .base import Layer


class BatchNorm(Layer):
    """Batch normalization over the feature axis.

    Supports 2D inputs ``(N, F)`` (normalize per feature) and 4D NCHW
    inputs ``(N, C, H, W)`` (normalize per channel).  Running statistics
    are tracked with exponential moving averages and used at eval time.
    """

    def __init__(
        self,
        momentum: float = 0.9,
        eps: float = 1e-5,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if not 0.0 < momentum < 1.0:
            raise ValueError(f"momentum must be in (0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.running_mean: Optional[np.ndarray] = None
        self.running_var: Optional[np.ndarray] = None
        self._axes: Optional[Tuple[int, ...]] = None
        self._param_shape: Optional[Tuple[int, ...]] = None

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        del rng
        if len(input_shape) == 1:
            features = int(input_shape[0])
            self._axes = (0,)
            self._param_shape = (features,)
        elif len(input_shape) == 3:
            channels = int(input_shape[0])
            self._axes = (0, 2, 3)
            self._param_shape = (1, channels, 1, 1)
        else:
            raise ValueError(
                f"BatchNorm supports (F,) or (C, H, W) inputs, got {input_shape}"
            )
        self.params["gamma"] = np.ones(self._param_shape, dtype=np.float64)
        self.params["beta"] = np.zeros(self._param_shape, dtype=np.float64)
        self.running_mean = np.zeros(self._param_shape, dtype=np.float64)
        self.running_var = np.ones(self._param_shape, dtype=np.float64)
        self.zero_grads()
        self.built = True

    def _infer_geometry(self, x: np.ndarray) -> None:
        """Recover _axes/_param_shape after a checkpoint restore.

        A restored layer has params but never went through build(), so
        derive the reduction axes from the input rank and the stored
        parameter shape.
        """
        self._param_shape = self.params["gamma"].shape
        self._axes = (0,) if x.ndim == 2 else (0, 2, 3)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self._axes is None:
            self._infer_geometry(x)
        if self.training:
            mean = x.mean(axis=self._axes, keepdims=True).reshape(self._param_shape)
            var = x.var(axis=self._axes, keepdims=True).reshape(self._param_shape)
            self.running_mean = (
                self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1.0 - self.momentum) * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        out = self.params["gamma"] * x_hat + self.params["beta"]
        if self.training:
            self._backend_state.update(x_hat=x_hat, inv_std=inv_std)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if "x_hat" not in self._backend_state:
            raise RuntimeError("backward called before forward (in training mode)")
        x_hat = self._backend_state["x_hat"]
        inv_std = self._backend_state["inv_std"]
        axes = self._axes
        m = float(np.prod([grad_out.shape[a] for a in axes]))

        self.grads["gamma"] = (grad_out * x_hat).sum(axis=axes, keepdims=True).reshape(
            self._param_shape
        )
        self.grads["beta"] = grad_out.sum(axis=axes, keepdims=True).reshape(
            self._param_shape
        )

        dx_hat = grad_out * self.params["gamma"]
        # Standard batchnorm backward, fused form.
        grad_in = (
            inv_std
            / m
            * (
                m * dx_hat
                - dx_hat.sum(axis=axes, keepdims=True)
                - x_hat * (dx_hat * x_hat).sum(axis=axes, keepdims=True)
            )
        )
        return grad_in

    def get_config(self) -> Dict:
        return {"name": self.name, "momentum": self.momentum, "eps": self.eps}

    # Running stats are state that must survive checkpointing even though
    # they are not optimized parameters.
    def get_state(self) -> Dict[str, np.ndarray]:
        """Non-trainable state for checkpointing."""
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore non-trainable state from a checkpoint."""
        self.running_mean = np.asarray(state["running_mean"], dtype=np.float64)
        self.running_var = np.asarray(state["running_var"], dtype=np.float64)
