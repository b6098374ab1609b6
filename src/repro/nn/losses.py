"""Loss functions with exact analytic gradients.

Every loss implements ``loss(y_pred, y_true) -> float`` and
``grad(y_pred, y_true) -> np.ndarray`` where the gradient is
dL/d(y_pred) averaged over the batch (so optimizers see per-example
means, matching the loss value).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .activations import log_softmax, sigmoid, softmax


def _as_index_labels(y_true: np.ndarray, num_classes: int) -> np.ndarray:
    """Accept integer labels or one-hot matrices; return integer labels."""
    y_true = np.asarray(y_true)
    if y_true.ndim == 2:
        if y_true.shape[1] != num_classes:
            raise ValueError(
                f"one-hot labels have {y_true.shape[1]} classes, logits have "
                f"{num_classes}"
            )
        return y_true.argmax(axis=1)
    return y_true.astype(np.int64)


class Loss:
    """Base class for losses."""

    def loss(self, y_pred: np.ndarray, y_true: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, y_pred: np.ndarray, y_true: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, y_pred: np.ndarray, y_true: np.ndarray) -> float:
        return self.loss(y_pred, y_true)


class SoftmaxCrossEntropy(Loss):
    """Softmax + cross-entropy on raw logits.

    Labels may be integer class indices ``(N,)`` or one-hot ``(N, C)``.
    """

    def loss(self, y_pred: np.ndarray, y_true: np.ndarray) -> float:
        num_classes = y_pred.shape[1]
        labels = _as_index_labels(y_true, num_classes)
        targets = np.eye(num_classes, dtype=np.float64)[labels]
        logp = log_softmax(y_pred, axis=1)
        return float(-(targets * logp).sum(axis=1).mean())

    def grad(self, y_pred: np.ndarray, y_true: np.ndarray) -> np.ndarray:
        num_classes = y_pred.shape[1]
        labels = _as_index_labels(y_true, num_classes)
        targets = np.eye(num_classes, dtype=np.float64)[labels]
        probs = softmax(y_pred, axis=1)
        return (probs - targets) / y_pred.shape[0]


class BinaryCrossEntropy(Loss):
    """Sigmoid + binary cross-entropy on a single logit column.

    ``y_pred`` is ``(N,)`` or ``(N, 1)`` raw logits, ``y_true`` binary.
    """

    def loss(self, y_pred: np.ndarray, y_true: np.ndarray) -> float:
        z = np.asarray(y_pred, dtype=np.float64).reshape(-1)
        y = np.asarray(y_true, dtype=np.float64).reshape(-1)
        # log(1 + exp(-|z|)) formulation is stable for large |z|.
        loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
        return float(loss.mean())

    def grad(self, y_pred: np.ndarray, y_true: np.ndarray) -> np.ndarray:
        shape = np.asarray(y_pred).shape
        z = np.asarray(y_pred, dtype=np.float64).reshape(-1)
        y = np.asarray(y_true, dtype=np.float64).reshape(-1)
        g = (sigmoid(z) - y) / z.size
        return g.reshape(shape)


class MeanSquaredError(Loss):
    """Mean squared error, averaged over batch and output dimensions."""

    def loss(self, y_pred: np.ndarray, y_true: np.ndarray) -> float:
        diff = np.asarray(y_pred, dtype=np.float64) - np.asarray(
            y_true, dtype=np.float64
        )
        return float(np.mean(diff * diff))

    def grad(self, y_pred: np.ndarray, y_true: np.ndarray) -> np.ndarray:
        diff = np.asarray(y_pred, dtype=np.float64) - np.asarray(
            y_true, dtype=np.float64
        )
        return 2.0 * diff / diff.size


_REGISTRY = {
    "softmax_cross_entropy": SoftmaxCrossEntropy,
    "binary_cross_entropy": BinaryCrossEntropy,
    "mse": MeanSquaredError,
}


def get(name_or_loss: Union[str, Loss]) -> Loss:
    """Resolve a loss from a name or pass an instance through."""
    if isinstance(name_or_loss, Loss):
        return name_or_loss
    try:
        return _REGISTRY[name_or_loss]()
    except KeyError:
        raise ValueError(
            f"Unknown loss {name_or_loss!r}; known: {sorted(_REGISTRY)}"
        ) from None
