"""Classification metrics: accuracy, precision/recall/F1, confusion matrix.

These mirror sklearn semantics (binary F1 on the positive class)
because the paper reports
accuracy and F1 with their standard definitions.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


def _to_labels(y: np.ndarray) -> np.ndarray:
    """Accept class indices, one-hot rows, or probability rows."""
    y = np.asarray(y)
    if y.ndim == 2:
        return y.argmax(axis=1)
    return y.astype(np.int64)


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exact label matches."""
    t, p = _to_labels(y_true), _to_labels(y_pred)
    if t.shape != p.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise ValueError("cannot compute accuracy of empty arrays")
    return float(np.mean(t == p))


def confusion_matrix(
    y_true: np.ndarray, y_pred: np.ndarray, num_classes: Optional[int] = None
) -> np.ndarray:
    """Confusion matrix C with C[i, j] = #(true==i and pred==j)."""
    t, p = _to_labels(y_true), _to_labels(y_pred)
    if num_classes is None:
        num_classes = int(max(t.max(initial=0), p.max(initial=0))) + 1
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


def precision_recall_f1(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    positive_class: int = 1,
    num_classes: Optional[int] = None,
) -> Dict[str, float]:
    """Binary precision/recall/F1 for ``positive_class``.

    Zero-division cases return 0.0, matching sklearn's default.
    """
    if num_classes is None:
        t, p = _to_labels(y_true), _to_labels(y_pred)
        inferred = int(max(t.max(initial=0), p.max(initial=0))) + 1
        num_classes = max(inferred, positive_class + 1)
    cm = confusion_matrix(y_true, y_pred, num_classes=num_classes)
    if positive_class >= cm.shape[0]:
        raise ValueError(
            f"positive_class={positive_class} outside confusion matrix "
            f"of size {cm.shape[0]}"
        )
    tp = float(cm[positive_class, positive_class])
    fp = float(cm[:, positive_class].sum() - tp)
    fn = float(cm[positive_class, :].sum() - tp)
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}


def f1_score(
    y_true: np.ndarray, y_pred: np.ndarray, positive_class: int = 1
) -> float:
    """Binary F1 on the positive class."""
    return precision_recall_f1(y_true, y_pred, positive_class)["f1"]
