"""Temporal attention pooling over sequence outputs.

An alternative read-out to "last LSTM state": scores every timestep
with a small additive-attention network and returns the attention-
weighted sum.  Included as an architecture extension (the emotion-
recognition literature increasingly replaces last-state read-outs with
attention); exact backprop, gradient-checked in the test suite.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..activations import softmax, tanh
from ..initializers import glorot_uniform
from .base import Layer


class TemporalAttention(Layer):
    """Additive (Bahdanau-style) attention pooling: (N, T, F) -> (N, F).

    score_t = v . tanh(W x_t + b);  alpha = softmax(score);
    output = sum_t alpha_t * x_t.

    Parameters
    ----------
    attention_units:
        Width of the scoring network's hidden layer.
    """

    def __init__(self, attention_units: int = 16, name: Optional[str] = None):
        super().__init__(name=name)
        if attention_units <= 0:
            raise ValueError(
                f"attention_units must be positive, got {attention_units}"
            )
        self.attention_units = int(attention_units)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 2:
            raise ValueError(
                f"TemporalAttention expects (T, F) inputs, got {input_shape}"
            )
        features = int(input_shape[1])
        a = self.attention_units
        self.params["W"] = glorot_uniform((features, a), rng)
        self.params["b"] = np.zeros(a, dtype=np.float64)
        self.params["v"] = glorot_uniform((a,), rng)
        self.zero_grads()
        self.built = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        # h: (N, T, A); scores: (N, T); alpha: (N, T)
        h = tanh(x @ self.params["W"] + self.params["b"])
        scores = h @ self.params["v"]
        alpha = softmax(scores, axis=1)
        out = np.einsum("nt,ntf->nf", alpha, x)
        self._backend_state.update(x=x, h=h, alpha=alpha)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if "alpha" not in self._backend_state:
            raise RuntimeError("backward called before forward")
        x = self._backend_state["x"]
        h = self._backend_state["h"]
        alpha = self._backend_state["alpha"]
        w, v = self.params["W"], self.params["v"]

        # out = sum_t alpha_t x_t
        d_alpha = np.einsum("nf,ntf->nt", grad_out, x)  # (N, T)
        d_x = alpha[:, :, None] * grad_out[:, None, :]  # (N, T, F)

        # softmax backward over the time axis.
        dot = np.sum(d_alpha * alpha, axis=1, keepdims=True)
        d_scores = alpha * (d_alpha - dot)  # (N, T)

        # scores = h @ v
        self.grads["v"] = np.einsum("nt,nta->a", d_scores, h)
        d_h = d_scores[:, :, None] * v[None, None, :]  # (N, T, A)

        # h = tanh(x @ W + b)
        d_pre = d_h * (1.0 - h * h)
        self.grads["W"] = np.einsum("ntf,nta->fa", x, d_pre)
        self.grads["b"] = d_pre.sum(axis=(0, 1))
        d_x += d_pre @ w.T
        return d_x

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        _, features = input_shape
        return (features,)

    def attention_weights(self) -> Optional[np.ndarray]:
        """The last forward pass's attention distribution (N, T)."""
        alpha = self._backend_state.get("alpha")
        return None if alpha is None else alpha.copy()

    def get_config(self) -> Dict:
        return {"name": self.name, "attention_units": self.attention_units}
