"""Sliding-window segmentation of raw recordings."""

from __future__ import annotations

import numpy as np


def num_windows(n_samples: int, window: int, step: int) -> int:
    """Number of full windows of length ``window`` at stride ``step``."""
    if window <= 0 or step <= 0:
        raise ValueError("window and step must be positive")
    if n_samples < window:
        return 0
    return (n_samples - window) // step + 1


def sliding_windows(
    x: np.ndarray, window: int, step: int
) -> np.ndarray:
    """View a 1D signal as a (num_windows, window) array of segments.

    Windows are full-length only; a trailing partial window is dropped,
    matching standard practice in physiological feature extraction.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"expected a 1D signal, got shape {x.shape}")
    count = num_windows(x.size, window, step)
    if count == 0:
        return np.empty((0, window), dtype=x.dtype)
    stride = x.strides[0]
    view = np.lib.stride_tricks.as_strided(
        x, shape=(count, window), strides=(step * stride, stride), writeable=False
    )
    return view.copy()
