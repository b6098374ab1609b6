"""Non-linear / complexity features: entropies, Poincaré, Hjorth.

These are the "non-linear features" the paper's feature-map recipe
(after Sun et al. [18]) extracts alongside time- and frequency-domain
statistics.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


#: Template rows compared per block: the distance matrix is built
#: ``_MATCH_BLOCK`` rows at a time, so memory stays O(block * n).
_MATCH_BLOCK = 256


def _chebyshev_rows(x: np.ndarray, m: int):
    """Row blocks of the pairwise Chebyshev distances between templates.

    Templates are the lag-1, length-``m`` subsequences of ``x``; yields
    ``(start, dist)`` with ``dist[a, j]`` the distance between templates
    ``start + a`` and ``j``.  Absolute differences and maxima are exact,
    so every entry equals the template-by-template loop bit for bit.
    """
    n = x.size - m + 1
    if n <= 0:
        raise ValueError(f"signal of length {x.size} too short for m={m}")
    for start in range(0, n, _MATCH_BLOCK):
        stop = min(start + _MATCH_BLOCK, n)
        dist = np.abs(x[start:stop, None] - x[None, :n])
        for k in range(1, m):
            np.maximum(
                dist,
                np.abs(x[start + k : stop + k, None] - x[None, k : n + k]),
                out=dist,
            )
        yield start, dist


def sample_entropy(x: np.ndarray, m: int = 2, r: float = None) -> float:
    """Sample entropy (Richman & Moorman, 2000), lag-1 embedding.

    ``r`` defaults to 0.2 * std(x).  Returns 0.0 for degenerate flat
    signals and caps at a large finite value when no matches exist at
    m+1 (instead of returning inf), keeping feature maps finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < m + 2:
        raise ValueError(f"signal too short for sample entropy: {x.size}")
    std = x.std()
    if std < 1e-12:
        return 0.0
    if r is None:
        r = 0.2 * std

    def count_matches(mm: int) -> int:
        # Template pairs i < j within r, excluding self-matches.
        return sum(
            int(np.count_nonzero(np.triu(dist <= r, k=start + 1)))
            for start, dist in _chebyshev_rows(x, mm)
        )

    b = count_matches(m)
    a = count_matches(m + 1)
    if b == 0:
        return 0.0
    if a == 0:
        return 10.0  # finite cap: no (m+1)-matches found
    return float(-np.log(a / b))


def approximate_entropy(x: np.ndarray, m: int = 2, r: float = None) -> float:
    """Approximate entropy (Pincus, 1991), lag-1 embedding.

    Returns NaN for a signal with non-finite samples, before any
    ``log``: templates holding them match nothing, not even themselves.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < m + 2:
        raise ValueError(f"signal too short for approximate entropy: {x.size}")
    if not np.isfinite(x).all():
        return float("nan")
    std = x.std()
    if std < 1e-12:
        return 0.0
    if r is None:
        r = 0.2 * std

    def phi(mm: int) -> float:
        n = x.size - mm + 1
        # Fraction of templates within r of each template, self included.
        counts = np.concatenate(
            [np.count_nonzero(dist <= r, axis=1) for _, dist in _chebyshev_rows(x, mm)]
        ) / n
        return float(np.mean(np.log(counts)))

    return float(phi(m) - phi(m + 1))


def poincare_descriptors(intervals: np.ndarray) -> Dict[str, float]:
    """Poincaré plot descriptors of an interval series (e.g. IBIs).

    SD1 captures short-term variability, SD2 long-term; also returns
    their ratio and the fitted ellipse area (pi * SD1 * SD2).
    """
    intervals = np.asarray(intervals, dtype=np.float64)
    if intervals.size < 3:
        return {"sd1": 0.0, "sd2": 0.0, "sd1_sd2_ratio": 0.0, "ellipse_area": 0.0}
    x1 = intervals[:-1]
    x2 = intervals[1:]
    diff = (x2 - x1) / np.sqrt(2.0)
    summ = (x2 + x1) / np.sqrt(2.0)
    sd1 = float(diff.std())
    sd2 = float(summ.std())
    return {
        "sd1": sd1,
        "sd2": sd2,
        "sd1_sd2_ratio": sd1 / sd2 if sd2 > 0 else 0.0,
        "ellipse_area": float(np.pi * sd1 * sd2),
    }


def hjorth_parameters(x: np.ndarray) -> Tuple[float, float, float]:
    """Hjorth activity, mobility and complexity of a signal."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 3:
        raise ValueError(f"signal too short for Hjorth parameters: {x.size}")
    dx = np.diff(x)
    ddx = np.diff(dx)
    var_x = x.var()
    var_dx = dx.var()
    var_ddx = ddx.var()
    activity = float(var_x)
    mobility = float(np.sqrt(var_dx / var_x)) if var_x > 0 else 0.0
    if var_dx > 0 and mobility > 0:
        complexity = float(np.sqrt(var_ddx / var_dx) / mobility)
    else:
        complexity = 0.0
    return activity, mobility, complexity


def zero_crossing_rate(x: np.ndarray) -> float:
    """Fraction of consecutive sample pairs that change sign (mean removed)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise ValueError("signal too short for zero-crossing rate")
    centered = x - x.mean()
    signs = np.sign(centered)
    # Treat exact zeros as positive so runs of zeros don't inflate the count.
    signs[signs == 0] = 1.0
    return float(np.mean(signs[:-1] != signs[1:]))
