"""Skin temperature (SKT) processing: the paper's 5 SKT features."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .filters import linear_trend
from .stats import one_window


def skt_feature_columns(windows: np.ndarray, fs: float) -> Dict[str, np.ndarray]:
    """The 5 SKT features of every row of a (windows, samples) array.

    SKT is a slow signal; the informative content is its level and
    drift: mean, std, slope (deg/s), min and max.
    """
    skt = np.asarray(windows, dtype=np.float64)
    if skt.shape[-1] < 2:
        raise ValueError(f"SKT window too short: {skt.shape[-1]} samples")
    return {
        "skt_mean": skt.mean(axis=-1),
        "skt_std": skt.std(axis=-1),
        "skt_slope": np.array([linear_trend(row, fs) for row in skt]),
        "skt_min": skt.min(axis=-1),
        "skt_max": skt.max(axis=-1),
    }


def extract_skt_features(skt: np.ndarray, fs: float) -> Dict[str, float]:
    """Extract the 5 SKT features from one analysis window."""
    return one_window(skt_feature_columns, skt, fs)


#: Canonical ordered names of the 5 SKT features.
SKT_FEATURE_NAMES: List[str] = [
    "skt_mean",
    "skt_std",
    "skt_slope",
    "skt_min",
    "skt_max",
]

NUM_SKT_FEATURES = len(SKT_FEATURE_NAMES)
