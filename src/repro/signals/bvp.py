"""Blood-volume-pulse (BVP) processing: pulse detection and 84 features.

The feature inventory follows the recipe of Sun et al. [18] (time
domain, frequency domain, non-linear), sized to the paper's 84 BVP
features.  All pulse-derived features degrade gracefully to 0.0 when a
window contains too few detected beats.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from scipy import signal as sps

from . import spectral
from .filters import butter_bandpass
from .nonlinear import (
    approximate_entropy,
    hjorth_parameters,
    poincare_descriptors,
    sample_entropy,
    zero_crossing_rate,
)
from .stats import (
    basic_stats,
    columns,
    iqr,
    one_window,
    safe_kurtosis,
    safe_skew,
)

#: Plausible human heart-rate limits used to constrain peak detection.
MIN_HR_BPM = 40.0
MAX_HR_BPM = 180.0
#: Pass band (Hz) isolating the cardiac pulse for peak detection.
CARDIAC_BAND_HZ = (0.5, 8.0)


def detect_pulse_peaks(bvp: np.ndarray, fs: float) -> np.ndarray:
    """Detect systolic peaks in a BVP trace.

    The trace is band-passed to the cardiac band (0.5-8 Hz) and peaks
    are required to be at least one maximal-heart-rate period apart,
    with prominence adaptive to the signal's spread.
    Returns sample indices of detected peaks.
    """
    bvp = np.asarray(bvp, dtype=np.float64)
    if bvp.size < int(fs):
        return np.array([], dtype=int)
    return _pulse_peaks(butter_bandpass(bvp, *CARDIAC_BAND_HZ, fs), fs)


def _pulse_peaks(filtered: np.ndarray, fs: float) -> np.ndarray:
    """Systolic peaks of one trace already band-passed to the cardiac band."""
    min_distance = max(1, int(fs * 60.0 / MAX_HR_BPM))
    prominence = 0.3 * filtered.std()
    peaks, _ = sps.find_peaks(filtered, distance=min_distance, prominence=prominence)
    return peaks


def ibi_from_peaks(peaks: np.ndarray, fs: float) -> np.ndarray:
    """Inter-beat intervals in seconds, filtered to plausible HR range."""
    if peaks.size < 2:
        return np.array([], dtype=np.float64)
    ibis = np.diff(peaks) / fs
    lo, hi = 60.0 / MAX_HR_BPM, 60.0 / MIN_HR_BPM
    return ibis[(ibis >= lo) & (ibis <= hi)]


def interpolate_ibi(
    peaks: np.ndarray, fs: float, fs_resample: float = 4.0
) -> Tuple[np.ndarray, float]:
    """Evenly resample the IBI tachogram for spectral HRV analysis.

    Returns ``(series, fs_resample)``; empty series if under 4 beats.
    """
    if peaks.size < 4:
        return np.array([], dtype=np.float64), fs_resample
    times = peaks[1:] / fs
    ibis = np.diff(peaks) / fs
    duration = times[-1] - times[0]
    if duration <= 0:
        return np.array([], dtype=np.float64), fs_resample
    grid = np.arange(times[0], times[-1], 1.0 / fs_resample)
    if grid.size < 8:
        return np.array([], dtype=np.float64), fs_resample
    return np.interp(grid, times, ibis), fs_resample


def _pulse_morphology(
    bvp: np.ndarray, peaks: np.ndarray, fs: float
) -> Dict[str, float]:
    """Per-pulse amplitude/width/rise/fall/slope statistics (12 features)."""
    names = [
        "bvp_pulse_amp_mean",
        "bvp_pulse_amp_std",
        "bvp_pulse_amp_min",
        "bvp_pulse_amp_max",
        "bvp_pulse_width_mean",
        "bvp_pulse_width_std",
        "bvp_rise_time_mean",
        "bvp_rise_time_std",
        "bvp_fall_time_mean",
        "bvp_fall_time_std",
        "bvp_pulse_slope_mean",
        "bvp_pulse_slope_std",
    ]
    if peaks.size < 3:
        return {name: 0.0 for name in names}

    amplitudes: List[float] = []
    widths: List[float] = []
    rises: List[float] = []
    falls: List[float] = []
    slopes: List[float] = []
    for i in range(1, peaks.size - 1):
        left, peak, right = peaks[i - 1], peaks[i], peaks[i + 1]
        trough_before = left + int(np.argmin(bvp[left:peak])) if peak > left else left
        trough_after = peak + int(np.argmin(bvp[peak:right])) if right > peak else peak
        amp = bvp[peak] - bvp[trough_before]
        rise = (peak - trough_before) / fs
        fall = (trough_after - peak) / fs
        if amp <= 0 or rise <= 0:
            continue
        amplitudes.append(float(amp))
        widths.append(float(rise + fall))
        rises.append(float(rise))
        falls.append(float(fall))
        slopes.append(float(amp / rise))

    if not amplitudes:
        return {name: 0.0 for name in names}
    amp_arr = np.array(amplitudes)
    return {
        "bvp_pulse_amp_mean": float(amp_arr.mean()),
        "bvp_pulse_amp_std": float(amp_arr.std()),
        "bvp_pulse_amp_min": float(amp_arr.min()),
        "bvp_pulse_amp_max": float(amp_arr.max()),
        "bvp_pulse_width_mean": float(np.mean(widths)),
        "bvp_pulse_width_std": float(np.std(widths)),
        "bvp_rise_time_mean": float(np.mean(rises)),
        "bvp_rise_time_std": float(np.std(rises)),
        "bvp_fall_time_mean": float(np.mean(falls)),
        "bvp_fall_time_std": float(np.std(falls)),
        "bvp_pulse_slope_mean": float(np.mean(slopes)),
        "bvp_pulse_slope_std": float(np.std(slopes)),
    }


def _hr_time_domain(ibis: np.ndarray, peak_count: int) -> Dict[str, float]:
    """Heart-rate and IBI time-domain features (14 + 6 features)."""
    zero_names = {
        "hr_mean": 0.0,
        "hr_std": 0.0,
        "hr_min": 0.0,
        "hr_max": 0.0,
        "hr_range": 0.0,
        "ibi_mean": 0.0,
        "sdnn": 0.0,
        "ibi_median": 0.0,
        "rmssd": 0.0,
        "sdsd": 0.0,
        "pnn20": 0.0,
        "pnn50": 0.0,
        "cvnn": 0.0,
        "peak_count": float(peak_count),
        "ibi_min": 0.0,
        "ibi_max": 0.0,
        "ibi_range": 0.0,
        "ibi_skew": 0.0,
        "ibi_kurtosis": 0.0,
        "ibi_iqr": 0.0,
    }
    if ibis.size < 3:
        return zero_names
    hr = 60.0 / ibis
    diffs = np.diff(ibis)
    features = {
        "hr_mean": float(hr.mean()),
        "hr_std": float(hr.std()),
        "hr_min": float(hr.min()),
        "hr_max": float(hr.max()),
        "hr_range": float(hr.max() - hr.min()),
        "ibi_mean": float(ibis.mean()),
        "sdnn": float(ibis.std()),
        "ibi_median": float(np.median(ibis)),
        "rmssd": float(np.sqrt(np.mean(diffs**2))) if diffs.size else 0.0,
        "sdsd": float(diffs.std()) if diffs.size else 0.0,
        "pnn20": float(np.mean(np.abs(diffs) > 0.02)) if diffs.size else 0.0,
        "pnn50": float(np.mean(np.abs(diffs) > 0.05)) if diffs.size else 0.0,
        "cvnn": float(ibis.std() / ibis.mean()) if ibis.mean() > 0 else 0.0,
        "peak_count": float(peak_count),
        "ibi_min": float(ibis.min()),
        "ibi_max": float(ibis.max()),
        "ibi_range": float(ibis.max() - ibis.min()),
        "ibi_skew": safe_skew(ibis),
        "ibi_kurtosis": safe_kurtosis(ibis),
        "ibi_iqr": iqr(ibis),
    }
    return features


def _bvp_spectral(freqs: np.ndarray, psd: np.ndarray) -> Dict[str, float]:
    """Spectral-shape features of one raw BVP window's PSD (10 features)."""
    total = spectral.total_power(freqs, psd)
    cardiac = spectral.band_power(freqs, psd, 0.5, 4.0)
    resp = spectral.band_power(freqs, psd, 0.1, 0.5)
    return {
        "bvp_total_power": total,
        "bvp_peak_freq": spectral.peak_frequency(freqs, psd),
        "bvp_peak_power": float(psd.max()),
        "bvp_spec_centroid": spectral.spectral_centroid(freqs, psd),
        "bvp_spec_spread": spectral.spectral_spread(freqs, psd),
        "bvp_spec_entropy": spectral.spectral_entropy(psd),
        "bvp_cardiac_power": cardiac,
        "bvp_cardiac_rel": cardiac / total if total > 0 else 0.0,
        "bvp_resp_power": resp,
        "bvp_resp_rel": resp / total if total > 0 else 0.0,
    }


def _hrv_spectral(peaks: np.ndarray, fs: float) -> Dict[str, float]:
    """HRV frequency-domain features from the resampled tachogram (10)."""
    names = {
        "hrv_vlf": 0.0,
        "hrv_lf": 0.0,
        "hrv_hf": 0.0,
        "hrv_total": 0.0,
        "hrv_lf_hf_ratio": 0.0,
        "hrv_lf_norm": 0.0,
        "hrv_hf_norm": 0.0,
        "hrv_peak_lf": 0.0,
        "hrv_peak_hf": 0.0,
        "hrv_vlf_rel": 0.0,
    }
    series, fs_r = interpolate_ibi(peaks, fs)
    if series.size < 16:
        return names
    series = series - series.mean()
    freqs, psd = spectral.welch_psd(series, fs_r, nperseg=min(series.size, 128))
    bands = spectral.hrv_band_powers(freqs, psd)
    lf_mask = (freqs >= 0.04) & (freqs < 0.15)
    hf_mask = (freqs >= 0.15) & (freqs < 0.4)
    names.update(
        {
            "hrv_vlf": bands["vlf"],
            "hrv_lf": bands["lf"],
            "hrv_hf": bands["hf"],
            "hrv_total": bands["total"],
            "hrv_lf_hf_ratio": bands["lf_hf_ratio"],
            "hrv_lf_norm": bands["lf_norm"],
            "hrv_hf_norm": bands["hf_norm"],
            "hrv_peak_lf": float(freqs[lf_mask][np.argmax(psd[lf_mask])])
            if lf_mask.any()
            else 0.0,
            "hrv_peak_hf": float(freqs[hf_mask][np.argmax(psd[hf_mask])])
            if hf_mask.any()
            else 0.0,
            "hrv_vlf_rel": bands["vlf"] / bands["total"]
            if bands["total"] > 0
            else 0.0,
        }
    )
    return names


def _nonlinear(bvp: np.ndarray, ibis: np.ndarray, fs: float) -> Dict[str, float]:
    """Poincaré and entropy features of one window (7 features)."""
    features = dict(poincare_descriptors(ibis))
    # Entropies on a decimated trace keep the window cost bounded.
    decim = bvp[:: max(1, int(fs / 8))]
    features["bvp_sampen"] = sample_entropy(decim) if decim.size >= 8 else 0.0
    features["bvp_apen"] = approximate_entropy(decim) if decim.size >= 8 else 0.0
    features["ibi_sampen"] = sample_entropy(ibis) if ibis.size >= 8 else 0.0
    return features


def bvp_feature_columns(windows: np.ndarray, fs: float) -> Dict[str, np.ndarray]:
    """The 84 BVP features of every row of a (windows, samples) array.

    Statistics, derivatives, the cardiac band-pass and the Welch PSD run
    over the whole array along the last axis; pulse-derived features
    (variable length per window) run row by row.  Returns name →
    (windows,) column, each row bit-identical to :func:`extract_bvp_features`
    on that window alone.
    """
    bvp = np.asarray(windows, dtype=np.float64)
    if bvp.shape[-1] < int(2 * fs):
        raise ValueError(
            f"BVP window too short: {bvp.shape[-1]} samples at {fs} Hz "
            "(need at least 2 seconds)"
        )

    # 12 raw statistics.
    features = basic_stats(bvp, "bvp")
    # 6 first-derivative features.
    d1 = np.diff(bvp, axis=-1)
    features["bvp_d1_mean_abs"] = np.mean(np.abs(d1), axis=-1)
    features["bvp_d1_std"] = d1.std(axis=-1)
    features["bvp_d1_max"] = d1.max(axis=-1)
    features["bvp_d1_min"] = d1.min(axis=-1)
    features["bvp_d1_rms"] = np.sqrt(np.mean(d1 * d1, axis=-1))
    features["bvp_zcr"] = np.array([zero_crossing_rate(row) for row in bvp])
    # 4 second-derivative features.
    d2 = np.diff(d1, axis=-1)
    features["bvp_d2_mean_abs"] = np.mean(np.abs(d2), axis=-1)
    features["bvp_d2_std"] = d2.std(axis=-1)
    features["bvp_d2_rms"] = np.sqrt(np.mean(d2 * d2, axis=-1))
    features["bvp_d2_max_abs"] = np.max(np.abs(d2), axis=-1)

    filtered = butter_bandpass(bvp, *CARDIAC_BAND_HZ, fs)
    peaks = [_pulse_peaks(row, fs) for row in filtered]
    ibis = [ibi_from_peaks(p, fs) for p in peaks]
    # 20 HR/IBI time-domain features.
    features.update(columns(_hr_time_domain(i, p.size) for i, p in zip(ibis, peaks)))
    # 10 BVP spectral features.
    freqs, psd = spectral.welch_psd(bvp, fs, batched=True)
    features.update(columns(_bvp_spectral(freqs, row) for row in psd))
    # 10 HRV spectral features.
    features.update(columns(_hrv_spectral(p, fs) for p in peaks))
    # 10 non-linear features.
    features.update(columns(_nonlinear(row, i, fs) for row, i in zip(bvp, ibis)))
    hjorth = np.array([hjorth_parameters(row) for row in bvp]).reshape(-1, 3)
    features["bvp_hjorth_activity"] = hjorth[:, 0]
    features["bvp_hjorth_mobility"] = hjorth[:, 1]
    features["bvp_hjorth_complexity"] = hjorth[:, 2]
    # 12 pulse-morphology features.
    features.update(
        columns(_pulse_morphology(row, p, fs) for row, p in zip(bvp, peaks))
    )
    return features


def extract_bvp_features(bvp: np.ndarray, fs: float) -> Dict[str, float]:
    """Extract the 84 BVP features from one analysis window.

    Parameters
    ----------
    bvp:
        1D raw BVP trace (one window).
    fs:
        Sampling rate in Hz.
    """
    return one_window(bvp_feature_columns, bvp, fs)


def _feature_names() -> List[str]:
    """Compute the canonical ordering once from a synthetic window."""
    rng = np.random.default_rng(0)
    fs = 64.0
    t = np.arange(0, 20.0, 1.0 / fs)
    demo = np.sin(2 * np.pi * 1.2 * t) + 0.05 * rng.normal(size=t.size)
    return list(bvp_feature_columns(demo[None, :], fs))


#: Canonical ordered names of the 84 BVP features.
BVP_FEATURE_NAMES: List[str] = _feature_names()

NUM_BVP_FEATURES = len(BVP_FEATURE_NAMES)
