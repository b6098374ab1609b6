"""Shared descriptive-statistics helpers for feature extraction.

Each helper reduces along the last axis: one signal gives floats, a
(windows, samples) array gives one value per window, bit-identical to
the call on that window alone.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple, Union

import numpy as np

Reduced = Union[float, np.ndarray]

_EPS = np.finfo(np.float64).eps


def _per_signal(x: np.ndarray, values: np.ndarray) -> Reduced:
    """A float for one signal, the per-window array for a window array."""
    return float(values) if x.ndim == 1 else values


def _scalar_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """``values ** exponent`` taken element by element on numpy scalars.

    scipy.stats raises each moment as a scalar; numpy's array power takes
    SIMD and squaring fast paths that can differ from that by one ulp.
    """
    values = np.asarray(values)
    return np.array([v**exponent for v in values.ravel()]).reshape(values.shape)


def skew_kurtosis(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Biased skewness and excess kurtosis along the last axis.

    Bit-identical to ``scipy.stats.skew`` / ``scipy.stats.kurtosis``:
    the same operation order, and nan where ``m2 <= (eps * mean)**2``
    (a (near-)constant input), without their per-call argument handling.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(all="ignore"):
        mean = x.mean(axis=-1, keepdims=True)
        d = x - mean
        d2 = d**2
        m2 = d2.mean(axis=-1)
        m3 = (d2 * d).mean(axis=-1)
        m4 = (d2**2).mean(axis=-1)
        flat = m2 <= _scalar_power(_EPS * mean[..., 0], 2)
        skew = np.where(flat, np.nan, m3 / _scalar_power(m2, 1.5))
        kurtosis = np.where(flat, np.nan, m4 / _scalar_power(m2, 2.0)) - 3
    return skew, kurtosis


def basic_stats(x: np.ndarray, prefix: str) -> Dict[str, Reduced]:
    """The 12 descriptive statistics used across all sensor channels."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ValueError(f"signal too short for statistics: {x.shape[-1]}")
    q75, q25 = np.percentile(x, [75, 25], axis=-1)
    mean = x.mean(axis=-1)
    std = x.std(axis=-1)
    low = x.min(axis=-1)
    high = x.max(axis=-1)
    skew, kurtosis = skew_kurtosis(x)
    spread = std > 1e-12
    stats = {
        f"{prefix}_mean": mean,
        f"{prefix}_std": std,
        f"{prefix}_min": low,
        f"{prefix}_max": high,
        f"{prefix}_range": high - low,
        f"{prefix}_median": np.median(x, axis=-1),
        f"{prefix}_iqr": q75 - q25,
        f"{prefix}_skew": np.where(spread, skew, 0.0),
        f"{prefix}_kurtosis": np.where(spread, kurtosis, 0.0),
        f"{prefix}_rms": np.sqrt(np.mean(x * x, axis=-1)),
        f"{prefix}_mad": np.mean(np.abs(x - mean[..., None]), axis=-1),
        f"{prefix}_energy": np.sum(x * x, axis=-1) / x.shape[-1],
    }
    return {name: _per_signal(x, values) for name, values in stats.items()}


def safe_skew(x: np.ndarray) -> Reduced:
    """Skewness, zero for (near-)constant or under-3-sample inputs."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 3:
        return _per_signal(x, np.zeros(x.shape[:-1]))
    skew, _ = skew_kurtosis(x)
    return _per_signal(x, np.where(x.std(axis=-1) < 1e-12, 0.0, skew))


def safe_kurtosis(x: np.ndarray) -> Reduced:
    """Excess kurtosis, zero for (near-)constant or under-4-sample inputs."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 4:
        return _per_signal(x, np.zeros(x.shape[:-1]))
    _, kurtosis = skew_kurtosis(x)
    return _per_signal(x, np.where(x.std(axis=-1) < 1e-12, 0.0, kurtosis))


def iqr(x: np.ndarray) -> float:
    """Interquartile range."""
    q75, q25 = np.percentile(np.asarray(x, dtype=np.float64), [75, 25])
    return float(q75 - q25)


def columns(rows: Iterable[Dict[str, float]]) -> Dict[str, np.ndarray]:
    """Per-window feature dicts transposed to name → (windows,) column."""
    rows = list(rows)
    return {
        name: np.array([row[name] for row in rows], dtype=np.float64)
        for name in rows[0]
    }


def one_window(
    feature_columns: Callable[[np.ndarray, float], Dict[str, np.ndarray]],
    x: np.ndarray,
    fs: float,
) -> Dict[str, float]:
    """The features ``feature_columns`` computes for one window, as floats."""
    window = np.asarray(x, dtype=np.float64).reshape(1, -1)
    columns_of_one = feature_columns(window, fs)
    return {name: float(column[0]) for name, column in columns_of_one.items()}
