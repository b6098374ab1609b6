"""Choosing the number of clusters K (paper §III-A.2, 'standard techniques')."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .kmeans import KMeans
from .metrics import (
    calinski_harabasz_index,
    davies_bouldin_index,
    silhouette_score,
)


@dataclass
class KSelectionReport:
    """Scores for every candidate K plus the selected value."""

    candidates: List[int]
    inertias: Dict[int, float]
    silhouettes: Dict[int, float]
    davies_bouldin: Dict[int, float]
    calinski_harabasz: Dict[int, float]
    selected_k: int
    method: str


def elbow_k(candidates: List[int], inertias: Dict[int, float]) -> int:
    """Pick K at the elbow: maximum distance to the line joining the
    first and last (K, inertia) points (the 'kneedle' construction)."""
    ks = np.array(candidates, dtype=np.float64)
    ys = np.array([inertias[int(k)] for k in candidates], dtype=np.float64)
    if ks.size < 3:
        return int(candidates[0])
    # Normalize both axes to [0, 1] so the geometry is scale-free.
    kn = (ks - ks[0]) / (ks[-1] - ks[0])
    span = ys[0] - ys[-1]
    yn = (ys - ys[-1]) / span if span > 0 else np.zeros_like(ys)
    # Depth below the descending diagonal y = 1 - x; the knee maximizes it.
    depth = (1.0 - kn) - yn
    return int(candidates[int(np.argmax(depth))])


def select_k(
    x: np.ndarray,
    k_min: int = 2,
    k_max: int = 8,
    method: str = "silhouette",
    seed: int = 0,
) -> KSelectionReport:
    """Fit k-means for each candidate K and score with internal indices.

    ``method`` picks the decision rule: ``'silhouette'`` (max),
    ``'davies_bouldin'`` (min), ``'calinski_harabasz'`` (max) or
    ``'elbow'`` (inertia knee).
    """
    x = np.asarray(x, dtype=np.float64)
    if k_min < 2:
        raise ValueError(f"k_min must be >= 2, got {k_min}")
    k_max = min(k_max, x.shape[0] - 1)
    if k_max < k_min:
        raise ValueError(
            f"not enough samples ({x.shape[0]}) for k_min={k_min}"
        )
    candidates = list(range(k_min, k_max + 1))
    inertias: Dict[int, float] = {}
    silhouettes: Dict[int, float] = {}
    db: Dict[int, float] = {}
    ch: Dict[int, float] = {}
    for k in candidates:
        result = KMeans(k, seed=seed).fit(x)
        inertias[k] = result.inertia
        silhouettes[k] = silhouette_score(x, result.labels)
        db[k] = davies_bouldin_index(x, result.labels)
        try:
            ch[k] = calinski_harabasz_index(x, result.labels)
        except ValueError:
            ch[k] = 0.0

    if method == "silhouette":
        selected = max(candidates, key=lambda k: silhouettes[k])
    elif method == "davies_bouldin":
        selected = min(candidates, key=lambda k: db[k])
    elif method == "calinski_harabasz":
        selected = max(candidates, key=lambda k: ch[k])
    elif method == "elbow":
        selected = elbow_k(candidates, inertias)
    else:
        raise ValueError(f"unknown selection method {method!r}")

    return KSelectionReport(
        candidates=candidates,
        inertias=inertias,
        silhouettes=silhouettes,
        davies_bouldin=db,
        calinski_harabasz=ch,
        selected_k=int(selected),
        method=method,
    )
