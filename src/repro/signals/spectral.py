"""Spectral analysis helpers: Welch PSD, band powers, spectral shape."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy import signal as sps


def welch_psd(
    x: np.ndarray, fs: float, nperseg: int = None, batched: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Welch power spectral density; ``nperseg`` auto-sized for short windows.

    ``x`` is one signal, or with ``batched`` a (windows, samples) array
    whose rows get one PSD each (``psd`` is then (windows, bins), each
    row bit-identical to the PSD of that row alone).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 and not (batched and x.ndim == 2):
        raise ValueError(f"expected a 1D signal, got shape {x.shape}")
    n = x.shape[-1]
    if n < 8:
        raise ValueError(f"signal too short for PSD: {n}")
    if nperseg is None:
        nperseg = min(256, n)
    nperseg = min(nperseg, n)
    return sps.welch(x, fs=fs, nperseg=nperseg)


def band_power(
    freqs: np.ndarray, psd: np.ndarray, low: float, high: float
) -> float:
    """Integrated PSD over [low, high) via the trapezoid rule."""
    if low >= high:
        raise ValueError(f"band bounds inverted: [{low}, {high})")
    mask = (freqs >= low) & (freqs < high)
    if mask.sum() < 2:
        # Fewer than two bins: fall back to the rectangle approximation.
        if mask.sum() == 1:
            df = freqs[1] - freqs[0] if freqs.size > 1 else 1.0
            return float(psd[mask][0] * df)
        return 0.0
    return float(np.trapezoid(psd[mask], freqs[mask]))


def total_power(freqs: np.ndarray, psd: np.ndarray) -> float:
    """Integrated PSD over the full estimated range."""
    return float(np.trapezoid(psd, freqs))


def peak_frequency(freqs: np.ndarray, psd: np.ndarray) -> float:
    """Frequency of the PSD maximum (ignoring DC)."""
    if freqs.size < 2:
        return float(freqs[0]) if freqs.size else 0.0
    idx = int(np.argmax(psd[1:])) + 1
    return float(freqs[idx])


def spectral_centroid(freqs: np.ndarray, psd: np.ndarray) -> float:
    """Power-weighted mean frequency."""
    denom = psd.sum()
    if denom <= 0:
        return 0.0
    return float((freqs * psd).sum() / denom)


def spectral_spread(freqs: np.ndarray, psd: np.ndarray) -> float:
    """Power-weighted standard deviation around the centroid."""
    denom = psd.sum()
    if denom <= 0:
        return 0.0
    centroid = spectral_centroid(freqs, psd)
    return float(np.sqrt(((freqs - centroid) ** 2 * psd).sum() / denom))


def spectral_entropy(psd: np.ndarray, normalize: bool = True) -> float:
    """Shannon entropy of the normalized PSD (optionally in [0, 1])."""
    p = np.asarray(psd, dtype=np.float64)
    total = p.sum()
    if total <= 0 or p.size < 2:
        return 0.0
    p = p / total
    p = p[p > 0]
    h = float(-(p * np.log2(p)).sum())
    if normalize:
        h /= np.log2(psd.size)
    return h


def hrv_band_powers(
    freqs: np.ndarray, psd: np.ndarray
) -> Dict[str, float]:
    """Standard HRV bands: VLF 0.003-0.04, LF 0.04-0.15, HF 0.15-0.4 Hz.

    Returns absolute powers, the LF/HF ratio, and normalized LF/HF
    (each divided by LF+HF, the convention in HRV literature).
    """
    vlf = band_power(freqs, psd, 0.003, 0.04)
    lf = band_power(freqs, psd, 0.04, 0.15)
    hf = band_power(freqs, psd, 0.15, 0.4)
    total = vlf + lf + hf
    lf_hf_sum = lf + hf
    return {
        "vlf": vlf,
        "lf": lf,
        "hf": hf,
        "total": total,
        "lf_hf_ratio": lf / hf if hf > 0 else 0.0,
        "lf_norm": lf / lf_hf_sum if lf_hf_sum > 0 else 0.0,
        "hf_norm": hf / lf_hf_sum if lf_hf_sum > 0 else 0.0,
    }
