"""Signal quality assessment and artifact injection.

Wearable recordings are plagued by motion spikes, sensor dropouts and
clipping.  This module provides (a) injectors that synthesize those
artifacts — used for failure-injection testing of
the whole CLEAR pipeline — and (b) quality indices that quantify how
corrupted a window is, so deployments can gate feature extraction on
signal quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

# ---------------------------------------------------------------------------
# Artifact injection
# ---------------------------------------------------------------------------


def inject_motion_spikes(
    x: np.ndarray,
    rng: np.random.Generator,
    rate_per_minute: float,
    fs: float,
    amplitude_scale: float = 8.0,
) -> np.ndarray:
    """Add sharp biphasic motion spikes at Poisson-distributed times."""
    x = np.asarray(x, dtype=np.float64).copy()
    if rate_per_minute < 0:
        raise ValueError("rate_per_minute must be >= 0")
    duration_min = x.size / fs / 60.0
    num_spikes = rng.poisson(rate_per_minute * duration_min)
    scale = amplitude_scale * (x.std() + 1e-9)
    spike_len = max(2, int(0.1 * fs))
    for _ in range(num_spikes):
        pos = int(rng.integers(0, max(1, x.size - spike_len)))
        shape = np.sin(np.linspace(0, 2 * np.pi, spike_len))
        # Signals shorter than one spike get a truncated spike rather
        # than a broadcast error (the slice clips at the signal end).
        span = x[pos : pos + spike_len].size
        x[pos : pos + spike_len] += (
            scale * rng.choice([-1.0, 1.0]) * shape[:span]
        )
    return x


def inject_dropout(
    x: np.ndarray,
    rng: np.random.Generator,
    fraction: float,
    fs: float,
    hold_value: Optional[float] = None,
) -> np.ndarray:
    """Replace a contiguous fraction of the signal with a flatline.

    Models a sensor losing skin contact; ``hold_value`` defaults to the
    last good sample (typical ADC behaviour).
    """
    x = np.asarray(x, dtype=np.float64).copy()
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if fraction == 0.0:
        return x
    gap = max(1, int(fraction * x.size))
    start = int(rng.integers(0, max(1, x.size - gap)))
    value = x[start - 1] if (hold_value is None and start > 0) else (
        hold_value if hold_value is not None else x[0]
    )
    x[start : start + gap] = value
    return x


def inject_clipping(
    x: np.ndarray,
    rng: np.random.Generator,
    fraction_of_range: float = 0.7,
    center_jitter: float = 0.05,
) -> np.ndarray:
    """Saturate the signal at a fraction of its dynamic range.

    Like every injector in this module, ``rng`` is explicit — the
    saturation band's center is jittered by up to ``center_jitter`` of
    the range (real ADC rails are rarely symmetric around the median).
    """
    x = np.asarray(x, dtype=np.float64).copy()
    if not 0.0 < fraction_of_range <= 1.0:
        raise ValueError("fraction_of_range must be in (0, 1]")
    full_range = x.max() - x.min()
    center = np.median(x) + rng.uniform(-center_jitter, center_jitter) * full_range
    half_range = 0.5 * full_range * fraction_of_range
    return np.clip(x, center - half_range, center + half_range)


# ---------------------------------------------------------------------------
# Quality indices
# ---------------------------------------------------------------------------


@dataclass
class QualityReport:
    """Per-window signal quality summary.

    All component indices are in [0, 1], 1 = clean.  ``overall`` is the
    minimum (a window is only as good as its worst failure mode).
    ``finite`` scores the fraction of NaN/Inf samples — a channel that
    emits NaNs (dead sensor, I2C glitch) is scored, not crashed on.
    """

    flatline: float
    clipping: float
    spikes: float
    overall: float
    finite: float = 1.0

    @property
    def acceptable(self) -> bool:
        """Default gate used by quality-aware pipelines."""
        return self.overall >= 0.5


def flatline_fraction(x: np.ndarray, eps: Optional[float] = None) -> float:
    """Fraction of consecutive samples with (near-)zero difference."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise ValueError("signal too short for flatline detection")
    if eps is None:
        eps = 1e-6 * max(x.std(), 1e-12)
    return float(np.mean(np.abs(np.diff(x)) <= eps))


def clipping_fraction(x: np.ndarray, tol: float = 1e-9) -> float:
    """Fraction of samples sitting exactly at the signal extremes."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise ValueError("signal too short for clipping detection")
    lo, hi = x.min(), x.max()
    if hi - lo < tol:
        return 1.0  # fully flat counts as fully clipped
    return float(np.mean((np.abs(x - lo) < tol) | (np.abs(x - hi) < tol)))


def spike_score(x: np.ndarray, z_threshold: float = 6.0) -> float:
    """Fraction of samples whose derivative is a >z-sigma outlier.

    Uses the median absolute deviation of the first difference, which
    is robust to the spikes being scored.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 3:
        raise ValueError("signal too short for spike detection")
    d = np.diff(x)
    mad = np.median(np.abs(d - np.median(d)))
    sigma = 1.4826 * mad
    if sigma < 1e-12:
        return 0.0
    return float(np.mean(np.abs(d - np.median(d)) > z_threshold * sigma))


def finite_fraction(x: np.ndarray) -> float:
    """Fraction of samples that are finite (not NaN/Inf)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("signal too short for finiteness check")
    return float(np.mean(np.isfinite(x)))


def assess_quality(x: np.ndarray) -> QualityReport:
    """Compute the quality report for one signal window.

    NaN/Inf samples never crash the assessment: the indices are
    computed over the finite samples (non-finite runs count against the
    ``finite`` score, and a window with fewer than 3 finite samples is
    scored 0 across the board).
    """
    x = np.asarray(x, dtype=np.float64)
    finite = finite_fraction(x)
    good = x[np.isfinite(x)]
    if good.size < 3:
        return QualityReport(
            flatline=0.0, clipping=0.0, spikes=0.0, overall=0.0, finite=0.0
        )
    flat = flatline_fraction(good)
    clip = clipping_fraction(good)
    spikes = spike_score(good)
    # Map raw fractions onto [0, 1] quality scores.  A clean signal has
    # near-zero fractions; scale so typical corruption drops the score
    # substantially.
    q_flat = float(np.clip(1.0 - 2.0 * flat, 0.0, 1.0))
    q_clip = float(np.clip(1.0 - 5.0 * clip, 0.0, 1.0))
    q_spikes = float(np.clip(1.0 - 20.0 * spikes, 0.0, 1.0))
    q_finite = float(np.clip(1.0 - 5.0 * (1.0 - finite), 0.0, 1.0))
    overall = min(q_flat, q_clip, q_spikes, q_finite)
    return QualityReport(
        flatline=q_flat,
        clipping=q_clip,
        spikes=q_spikes,
        overall=overall,
        finite=q_finite,
    )


@dataclass
class AggregateQualityReport:
    """Gate decision for one multi-channel window.

    ``channels`` holds the per-channel indices; ``failing`` lists the
    channels whose overall score fell below ``min_overall``;
    ``skewed`` lists channels whose duration (samples / fs) deviates
    from the across-channel median by more than 5 % — the footprint of
    sample loss or clock skew.  ``accept`` is the gate decision
    downstream runtimes key on.
    """

    channels: Dict[str, QualityReport]
    failing: Tuple[str, ...]
    skewed: Tuple[str, ...]
    overall: float
    min_overall: float

    @property
    def accept(self) -> bool:
        """True when no channel fails quality and durations agree."""
        return not self.failing and not self.skewed

    def to_dict(self) -> Dict:
        """Machine-readable form (for logs / HealthStatus payloads)."""
        return {
            "accept": self.accept,
            "overall": self.overall,
            "failing": list(self.failing),
            "skewed": list(self.skewed),
            "channels": {
                name: {
                    "flatline": r.flatline,
                    "clipping": r.clipping,
                    "spikes": r.spikes,
                    "finite": r.finite,
                    "overall": r.overall,
                }
                for name, r in self.channels.items()
            },
        }


def quality_report(
    window_dict: Mapping[str, np.ndarray],
    fs: Union[Mapping[str, float], float],
    min_overall: float = 0.5,
    max_duration_skew: float = 0.05,
) -> AggregateQualityReport:
    """Aggregate quality gate over one window of named channels.

    Parameters
    ----------
    window_dict:
        Channel name -> 1-D sample array for the same wall-clock span.
    fs:
        Sampling rates, either one rate for all channels or a mapping
        per channel; used to compare channel durations (sample loss /
        clock skew shows up as one channel covering less time).
    min_overall:
        A channel with ``overall`` below this lands in ``failing``.
    max_duration_skew:
        Relative duration deviation from the median beyond which a
        channel lands in ``skewed``.
    """
    if not window_dict:
        raise ValueError("window_dict must name at least one channel")
    channels: Dict[str, QualityReport] = {}
    durations: Dict[str, float] = {}
    for name, samples in window_dict.items():
        samples = np.asarray(samples, dtype=np.float64)
        rate = float(fs[name]) if isinstance(fs, Mapping) else float(fs)
        if rate <= 0:
            raise ValueError(f"sampling rate for {name!r} must be positive")
        durations[name] = samples.size / rate
        if samples.size < 3:
            channels[name] = QualityReport(
                flatline=0.0, clipping=0.0, spikes=0.0, overall=0.0, finite=0.0
            )
        else:
            channels[name] = assess_quality(samples)
    failing = tuple(
        name for name, r in channels.items() if r.overall < min_overall
    )
    median_duration = float(np.median(list(durations.values())))
    skewed = tuple(
        name
        for name, d in durations.items()
        if median_duration > 0
        and abs(d - median_duration) / median_duration > max_duration_skew
    )
    overall = min(r.overall for r in channels.values())
    return AggregateQualityReport(
        channels=channels,
        failing=failing,
        skewed=skewed,
        overall=overall,
        min_overall=min_overall,
    )
