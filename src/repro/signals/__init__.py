"""Physiological signal processing: DSP, per-sensor features, feature maps.

Implements the paper's 123-feature inventory (84 BVP + 34 GSR + 5 SKT)
and the 2D feature-map generation that feeds clustering and the
CNN-LSTM classifier.
"""

from .bvp import (
    BVP_FEATURE_NAMES,
    NUM_BVP_FEATURES,
    detect_pulse_peaks,
    extract_bvp_features,
    ibi_from_peaks,
    interpolate_ibi,
)
from .feature_map import (
    FeatureMap,
    FeatureNormalizer,
    build_feature_map,
    maps_to_arrays,
    subject_signature,
)
from .features import (
    ALL_FEATURE_NAMES,
    NUM_FEATURES,
    FeatureExtractor,
    SensorRates,
)
from .filters import butter_bandpass, butter_lowpass, linear_trend
from .gsr import (
    GSR_FEATURE_NAMES,
    NUM_GSR_FEATURES,
    decompose_gsr,
    detect_scrs,
    extract_gsr_features,
)
from .nonlinear import (
    approximate_entropy,
    hjorth_parameters,
    poincare_descriptors,
    sample_entropy,
    zero_crossing_rate,
)
from .quality import (
    AggregateQualityReport,
    QualityReport,
    assess_quality,
    clipping_fraction,
    finite_fraction,
    flatline_fraction,
    inject_clipping,
    inject_dropout,
    inject_motion_spikes,
    quality_report,
    spike_score,
)
from .skt import NUM_SKT_FEATURES, SKT_FEATURE_NAMES, extract_skt_features
from .spectral import (
    band_power,
    hrv_band_powers,
    peak_frequency,
    spectral_centroid,
    spectral_entropy,
    spectral_spread,
    total_power,
    welch_psd,
)
from .windows import num_windows, sliding_windows

__all__ = [
    "ALL_FEATURE_NAMES",
    "NUM_FEATURES",
    "FeatureExtractor",
    "SensorRates",
    "FeatureMap",
    "FeatureNormalizer",
    "build_feature_map",
    "maps_to_arrays",
    "subject_signature",
    "BVP_FEATURE_NAMES",
    "NUM_BVP_FEATURES",
    "extract_bvp_features",
    "detect_pulse_peaks",
    "ibi_from_peaks",
    "interpolate_ibi",
    "GSR_FEATURE_NAMES",
    "NUM_GSR_FEATURES",
    "extract_gsr_features",
    "decompose_gsr",
    "detect_scrs",
    "SKT_FEATURE_NAMES",
    "NUM_SKT_FEATURES",
    "extract_skt_features",
    "butter_bandpass",
    "butter_lowpass",
    "linear_trend",
    "sample_entropy",
    "approximate_entropy",
    "poincare_descriptors",
    "hjorth_parameters",
    "zero_crossing_rate",
    "welch_psd",
    "band_power",
    "total_power",
    "peak_frequency",
    "spectral_centroid",
    "spectral_spread",
    "spectral_entropy",
    "hrv_band_powers",
    "AggregateQualityReport",
    "QualityReport",
    "assess_quality",
    "finite_fraction",
    "flatline_fraction",
    "clipping_fraction",
    "spike_score",
    "quality_report",
    "inject_motion_spikes",
    "inject_dropout",
    "inject_clipping",
    "num_windows",
    "sliding_windows",
]
