"""Galvanic skin response (GSR / EDA) processing: 34 features.

The signal is decomposed into a slow tonic component (skin conductance
level, SCL) and a fast phasic component containing skin conductance
responses (SCRs).  Feature groups: 10 raw statistics, 6 derivative
features, 6 tonic features, 12 phasic/SCR features — 34 total, matching
the paper's GSR inventory.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from scipy import signal as sps

from .filters import butter_lowpass, linear_trend
from .stats import columns, one_window, safe_kurtosis, safe_skew

#: Cutoff separating tonic (below) from phasic (above) activity, Hz.
TONIC_CUTOFF_HZ = 0.05


def decompose_gsr(gsr: np.ndarray, fs: float) -> Tuple[np.ndarray, np.ndarray]:
    """Split GSR into (tonic, phasic) via low-pass filtering.

    The tonic SCL is the < 0.05 Hz component; the phasic driver is the
    residual.  This is the standard cvxEDA-free approximation and is
    sufficient for SCR counting/amplitude statistics.  ``gsr`` is one
    window or a (windows, samples) array, filtered row by row.
    """
    gsr = np.asarray(gsr, dtype=np.float64)
    if gsr.shape[-1] < int(2 * fs):
        raise ValueError(
            f"GSR window too short: {gsr.shape[-1]} samples at {fs} Hz"
        )
    tonic = butter_lowpass(gsr, TONIC_CUTOFF_HZ, fs, order=2)
    phasic = gsr - tonic
    return tonic, phasic


def detect_scrs(
    phasic: np.ndarray, fs: float, min_amplitude: float = 0.05
) -> Dict[str, np.ndarray]:
    """Detect skin conductance responses in the phasic component.

    An SCR is a peak in the phasic driver with amplitude above
    ``min_amplitude`` (in the signal's units; 0.05 uS is the standard
    EDA threshold) measured from the preceding onset (local minimum).  Returns peak indices, onset
    indices, amplitudes, and rise times in seconds.
    """
    phasic = np.asarray(phasic, dtype=np.float64)
    # SCRs are 1-5 s events; enforce >= 1 s separation.
    min_distance = max(1, int(fs))
    peaks, _ = sps.find_peaks(phasic, distance=min_distance)
    onsets: List[int] = []
    amplitudes: List[float] = []
    rise_times: List[float] = []
    kept_peaks: List[int] = []
    prev_peak = 0
    for peak in peaks:
        segment_start = prev_peak
        onset = segment_start + int(np.argmin(phasic[segment_start : peak + 1]))
        amp = phasic[peak] - phasic[onset]
        if amp >= min_amplitude and peak > onset:
            kept_peaks.append(int(peak))
            onsets.append(int(onset))
            amplitudes.append(float(amp))
            rise_times.append(float((peak - onset) / fs))
        prev_peak = peak
    return {
        "peaks": np.array(kept_peaks, dtype=int),
        "onsets": np.array(onsets, dtype=int),
        "amplitudes": np.array(amplitudes, dtype=np.float64),
        "rise_times": np.array(rise_times, dtype=np.float64),
    }


def _scr_recovery_times(
    phasic: np.ndarray, scrs: Dict[str, np.ndarray], fs: float
) -> np.ndarray:
    """Half-recovery time per SCR: time to fall to 50 % of amplitude."""
    recoveries: List[float] = []
    peaks = scrs["peaks"]
    amps = scrs["amplitudes"]
    for i, peak in enumerate(peaks):
        target = phasic[peak] - 0.5 * amps[i]
        end = peaks[i + 1] if i + 1 < len(peaks) else phasic.size
        below = np.nonzero(phasic[peak:end] <= target)[0]
        if below.size:
            recoveries.append(float(below[0] / fs))
    return np.array(recoveries, dtype=np.float64)


def _scr_features(phasic: np.ndarray, fs: float) -> Dict[str, float]:
    """SCR count, rate, amplitude, rise and recovery of one window (9)."""
    scrs = detect_scrs(phasic, fs)
    amps = scrs["amplitudes"]
    rises = scrs["rise_times"]
    recoveries = _scr_recovery_times(phasic, scrs, fs)
    duration_min = phasic.size / fs / 60.0
    return {
        "scr_count": float(len(amps)),
        "scr_rate": float(len(amps) / duration_min) if duration_min > 0 else 0.0,
        "scr_amp_mean": float(amps.mean()) if amps.size else 0.0,
        "scr_amp_std": float(amps.std()) if amps.size else 0.0,
        "scr_amp_max": float(amps.max()) if amps.size else 0.0,
        "scr_amp_sum": float(amps.sum()) if amps.size else 0.0,
        "scr_rise_mean": float(rises.mean()) if rises.size else 0.0,
        "scr_rise_std": float(rises.std()) if rises.size else 0.0,
        "scr_recovery_mean": float(recoveries.mean()) if recoveries.size else 0.0,
    }


def gsr_feature_columns(windows: np.ndarray, fs: float) -> Dict[str, np.ndarray]:
    """The 34 GSR features of every row of a (windows, samples) array.

    The tonic low-pass and the statistics run along the last axis; the
    tonic slope and SCR features run row by row.  Returns name →
    (windows,) column, each row bit-identical to
    :func:`extract_gsr_features` on that window alone.
    """
    gsr = np.asarray(windows, dtype=np.float64)
    tonic, phasic = decompose_gsr(gsr, fs)

    features: Dict[str, np.ndarray] = {}
    # 10 raw statistics.
    q75, q25 = np.percentile(gsr, [75, 25], axis=-1)
    features["gsr_mean"] = gsr.mean(axis=-1)
    features["gsr_std"] = gsr.std(axis=-1)
    features["gsr_min"] = gsr.min(axis=-1)
    features["gsr_max"] = gsr.max(axis=-1)
    features["gsr_range"] = gsr.max(axis=-1) - gsr.min(axis=-1)
    features["gsr_median"] = np.median(gsr, axis=-1)
    features["gsr_skew"] = safe_skew(gsr)
    features["gsr_kurtosis"] = safe_kurtosis(gsr)
    features["gsr_rms"] = np.sqrt(np.mean(gsr * gsr, axis=-1))
    features["gsr_iqr"] = q75 - q25

    # 6 first-derivative features.
    d1 = np.diff(gsr, axis=-1) * fs  # units per second
    features["gsr_d1_mean"] = d1.mean(axis=-1)
    features["gsr_d1_std"] = d1.std(axis=-1)
    features["gsr_d1_max"] = d1.max(axis=-1)
    features["gsr_d1_min"] = d1.min(axis=-1)
    features["gsr_d1_mean_abs"] = np.mean(np.abs(d1), axis=-1)
    features["gsr_d1_neg_prop"] = np.mean(d1 < 0, axis=-1)

    # 6 tonic (SCL) features.
    features["gsr_tonic_mean"] = tonic.mean(axis=-1)
    features["gsr_tonic_std"] = tonic.std(axis=-1)
    features["gsr_tonic_slope"] = np.array([linear_trend(row, fs) for row in tonic])
    features["gsr_tonic_min"] = tonic.min(axis=-1)
    features["gsr_tonic_max"] = tonic.max(axis=-1)
    features["gsr_tonic_range"] = tonic.max(axis=-1) - tonic.min(axis=-1)

    # 12 phasic / SCR features.
    features.update(columns(_scr_features(row, fs) for row in phasic))
    features["gsr_phasic_mean"] = phasic.mean(axis=-1)
    features["gsr_phasic_std"] = phasic.std(axis=-1)
    features["gsr_phasic_energy"] = np.sum(phasic * phasic, axis=-1) / phasic.shape[-1]
    return features


def extract_gsr_features(gsr: np.ndarray, fs: float) -> Dict[str, float]:
    """Extract the 34 GSR features from one analysis window."""
    return one_window(gsr_feature_columns, gsr, fs)


def _feature_names() -> List[str]:
    rng = np.random.default_rng(0)
    fs = 4.0
    t = np.arange(0, 60.0, 1.0 / fs)
    demo = 2.0 + 0.02 * t + 0.1 * rng.normal(size=t.size)
    return list(gsr_feature_columns(demo[None, :], fs))


#: Canonical ordered names of the 34 GSR features.
GSR_FEATURE_NAMES: List[str] = _feature_names()

NUM_GSR_FEATURES = len(GSR_FEATURE_NAMES)
