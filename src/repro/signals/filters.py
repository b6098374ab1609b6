"""Filtering and conditioning primitives for physiological signals."""

from __future__ import annotations

import functools
from typing import Tuple, Union

import numpy as np
from scipy import signal as sps


def _validate_signal(
    x: np.ndarray, min_len: int = 2, batched: bool = False
) -> np.ndarray:
    """A float64 1D signal, or with ``batched`` a (windows, samples) array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 and not (batched and x.ndim == 2):
        raise ValueError(f"expected a 1D signal, got shape {x.shape}")
    if x.shape[-1] < min_len:
        raise ValueError(f"signal too short: {x.shape[-1]} < {min_len}")
    return x


def linear_trend(x: np.ndarray, fs: float = 1.0) -> float:
    """Least-squares slope of the signal in units per second."""
    x = _validate_signal(x)
    t = np.arange(x.size, dtype=np.float64) / fs
    slope, _ = np.polyfit(t, x, 1)
    return float(slope)


def _nyquist_clamped(cutoff: float, fs: float) -> float:
    """Clamp a cutoff just below the Nyquist frequency."""
    nyq = fs / 2.0
    return min(cutoff, 0.99 * nyq)


@functools.lru_cache(maxsize=128)
def _butter_sos(
    order: int, cutoff: Union[float, Tuple[float, float]], btype: str, fs: float
) -> np.ndarray:
    """Butterworth second-order sections, designed once per parameter set.

    The coefficients depend only on these four values, while the
    extractor filters every window of every recording with the same few
    designs.  The cached array is read-only; callers filter with a copy
    because scipy's ``sosfilt`` needs a writable one.
    """
    sos = sps.butter(order, cutoff, btype=btype, fs=fs, output="sos")
    sos.setflags(write=False)
    return sos


def butter_lowpass(
    x: np.ndarray, cutoff: float, fs: float, order: int = 4
) -> np.ndarray:
    """Zero-phase Butterworth low-pass filter.

    ``x`` is one signal or a (windows, samples) array filtered row by row
    along the last axis (each row bit-identical to filtering it alone).
    """
    x = _validate_signal(x, min_len=8, batched=True)
    cutoff = _nyquist_clamped(cutoff, fs)
    return sps.sosfiltfilt(_butter_sos(order, cutoff, "low", fs).copy(), x)


def butter_bandpass(
    x: np.ndarray, low: float, high: float, fs: float, order: int = 3
) -> np.ndarray:
    """Zero-phase Butterworth band-pass filter (shapes as in
    :func:`butter_lowpass`)."""
    x = _validate_signal(x, min_len=16, batched=True)
    if low <= 0:
        raise ValueError(f"low cutoff must be positive, got {low}")
    high = _nyquist_clamped(high, fs)
    if low >= high:
        raise ValueError(f"low cutoff {low} must be below high cutoff {high}")
    return sps.sosfiltfilt(_butter_sos(order, (low, high), "band", fs).copy(), x)
