"""Feature scaling for clustering (z-score with stored statistics)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class StandardScaler:
    """Per-feature z-score scaler with persisted train statistics.

    The 123 physiological features span wildly different scales
    (energies vs. normalized ratios); clustering distances are
    meaningless without standardization.
    """

    def __init__(self, eps: float = 1e-8):
        self.eps = float(eps)
        self.mean_: Optional[np.ndarray] = None
        self.std_: Optional[np.ndarray] = None

    def __repro_content__(self) -> Tuple:
        return (self.eps, self.mean_, self.std_)

    def fit(self, x: np.ndarray) -> "StandardScaler":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError(f"expected non-empty (n, F) data, got {x.shape}")
        self.mean_ = x.mean(axis=0)
        self.std_ = x.std(axis=0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.std_ is None:
            raise RuntimeError("scaler must be fitted before transform")
        x = np.asarray(x, dtype=np.float64)
        return (x - self.mean_) / (self.std_ + self.eps)

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)
