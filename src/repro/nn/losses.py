"""The softmax cross-entropy loss, with its exact analytic gradient.

``loss(y_pred, y_true) -> float`` is the batch-mean loss and
``grad(y_pred, y_true) -> np.ndarray`` is dL/d(y_pred) averaged over the
batch (so the optimizer sees per-example means, matching the loss value).
"""

from __future__ import annotations

import numpy as np

from .activations import log_softmax, softmax


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


class SoftmaxCrossEntropy:
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
