"""2D feature maps M ∈ R^{F×W} and their normalization.

A feature map stacks the per-window 123-feature vectors of W
consecutive windows column-wise, turning a multi-channel physiological
recording into an "image" that the CNN-LSTM consumes (paper §III-A.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .features import NUM_FEATURES


@dataclass
class FeatureMap:
    """One labelled 2D feature map.

    Attributes
    ----------
    values:
        Array of shape (F, W): F features by W time windows.
    label:
        Integer class label (e.g. 1 = fear, 0 = non-fear).
    subject_id:
        Originating volunteer, used by LOSO splitting.
    """

    values: np.ndarray
    label: int
    subject_id: int

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(
                f"feature map must be 2D (F, W), got shape {self.values.shape}"
            )

    @property
    def num_features(self) -> int:
        return self.values.shape[0]

    @property
    def num_windows(self) -> int:
        return self.values.shape[1]

    def as_nn_input(self) -> np.ndarray:
        """Reshape to the NCHW tensor layout expected by Conv2D: (1, F, W)."""
        return self.values[None, :, :]


def build_feature_map(
    window_vectors: np.ndarray, label: int, subject_id: int
) -> FeatureMap:
    """Stack per-window feature vectors (W, F) into a FeatureMap (F, W)."""
    window_vectors = np.asarray(window_vectors, dtype=np.float64)
    if window_vectors.ndim != 2:
        raise ValueError(
            f"expected (W, F) window vectors, got shape {window_vectors.shape}"
        )
    return FeatureMap(window_vectors.T, label=label, subject_id=subject_id)


class FeatureNormalizer:
    """Per-feature z-score normalization with train-set statistics.

    Fit on training feature maps only, then applied to train and test
    alike — the standard leak-free protocol for LOSO evaluation.
    """

    def __init__(self, eps: float = 1e-8):
        self.eps = float(eps)
        self.mean_: Optional[np.ndarray] = None
        self.std_: Optional[np.ndarray] = None

    def __repro_content__(self) -> Tuple:
        return (self.eps, self.mean_, self.std_)

    def fit(self, maps: Sequence[FeatureMap]) -> "FeatureNormalizer":
        if not maps:
            raise ValueError("cannot fit normalizer on an empty set")
        stacked = np.concatenate([m.values for m in maps], axis=1)  # (F, sum W)
        self.mean_ = stacked.mean(axis=1, keepdims=True)
        self.std_ = stacked.std(axis=1, keepdims=True)
        return self

    def transform(self, fmap: FeatureMap) -> FeatureMap:
        if self.mean_ is None or self.std_ is None:
            raise RuntimeError("normalizer must be fitted before transform")
        values = (fmap.values - self.mean_) / (self.std_ + self.eps)
        return FeatureMap(values, label=fmap.label, subject_id=fmap.subject_id)

    def transform_all(self, maps: Sequence[FeatureMap]) -> List[FeatureMap]:
        return [self.transform(m) for m in maps]

    def fit_transform(self, maps: Sequence[FeatureMap]) -> List[FeatureMap]:
        return self.fit(maps).transform_all(maps)


def maps_to_arrays(maps: Sequence[FeatureMap]) -> Tuple[np.ndarray, np.ndarray]:
    """Stack maps into (N, 1, F, W) inputs and (N,) labels for the NN.

    All maps must share the same (F, W) shape.
    """
    if not maps:
        return (
            np.empty((0, 1, NUM_FEATURES, 0), dtype=np.float64),
            np.empty((0,), dtype=np.int64),
        )
    shapes = {m.values.shape for m in maps}
    if len(shapes) != 1:
        raise ValueError(f"inconsistent feature-map shapes: {sorted(shapes)}")
    x = np.stack([m.as_nn_input() for m in maps], axis=0)
    y = np.array([m.label for m in maps], dtype=np.int64)
    return x, y


@dataclass
class SubjectExtractionUnit:
    """One subject's raw recordings, packaged as an executor work unit.

    Extraction is pure — raw bytes + config in, feature maps out — so
    units can run on any process in any order and the result is
    bit-identical to a serial sweep.  ``cache_dir`` (not a live cache
    handle) travels with the unit so each worker process opens its own
    handle on the shared content-addressed store.
    """

    subject_id: int
    trials: List[Dict[str, np.ndarray]]  # keys: bvp / gsr / skt
    labels: List[int]
    windows_per_map: int
    rates: Tuple[float, float, float]  # (bvp, gsr, skt) Hz
    window_seconds: float
    step_seconds: Optional[float] = None
    cache_dir: Optional[str] = None


@dataclass
class SubjectExtractionResult:
    """Extracted maps plus the unit's cache hit/miss counts."""

    subject_id: int
    maps: List[FeatureMap] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0


def extract_subject_maps(unit: SubjectExtractionUnit) -> SubjectExtractionResult:
    """Extract (or cache-load) every feature map for one subject.

    The cache key is SHA-256 over the trial's raw signal bytes plus the
    full extraction configuration, so byte-identical raw data with an
    unchanged config is never re-extracted, while any config change
    (window length, rates, windows_per_map) invalidates transparently.
    """
    from .features import FeatureExtractor, SensorRates

    cache = None
    if unit.cache_dir is not None:
        # Cache handles are opened through the orchestration context —
        # the single injection point for runtime machinery (RPR009) —
        # lazily, so signals stays importable without orchestration.
        from ..orchestration.context import open_feature_map_cache

        cache = open_feature_map_cache(unit.cache_dir)

    extractor = FeatureExtractor(
        rates=SensorRates(*unit.rates),
        window_seconds=unit.window_seconds,
        step_seconds=unit.step_seconds,
    )
    result = SubjectExtractionResult(subject_id=unit.subject_id)
    for raw, label in zip(unit.trials, unit.labels):
        key = None
        if cache is not None:
            key = cache.key(
                "feature_map.v1",
                raw["bvp"],
                raw["gsr"],
                raw["skt"],
                unit.rates,
                unit.window_seconds,
                extractor.step_seconds,
                unit.windows_per_map,
                label,
                unit.subject_id,
            )
            entry = cache.load_arrays(key)
            if entry is not None:
                result.maps.append(
                    FeatureMap(
                        entry["values"],
                        label=int(entry["label"]),
                        subject_id=int(entry["subject_id"]),
                    )
                )
                result.cache_hits += 1
                continue
            result.cache_misses += 1
        vectors = extractor.extract_recording(raw["bvp"], raw["gsr"], raw["skt"])
        if vectors.shape[0] < unit.windows_per_map:
            raise RuntimeError(
                "trial too short for requested windows_per_map: "
                f"{vectors.shape[0]} < {unit.windows_per_map}"
            )
        fmap = build_feature_map(
            vectors[: unit.windows_per_map],
            label=label,
            subject_id=unit.subject_id,
        )
        if cache is not None and key is not None:
            cache.store_arrays(
                key,
                values=fmap.values,
                label=np.int64(label),
                subject_id=np.int64(unit.subject_id),
            )
        result.maps.append(fmap)
    return result


def subject_signature(maps: Sequence[FeatureMap]) -> np.ndarray:
    """Per-subject signature vector: the mean feature vector across maps.

    This is the D ∈ R^{F×N} representation the paper clusters on (one
    column per user).
    """
    if not maps:
        raise ValueError("cannot summarize an empty set of maps")
    per_map_means = np.stack([m.values.mean(axis=1) for m in maps], axis=0)
    return per_map_means.mean(axis=0)


def signature_matrix(records: Sequence) -> np.ndarray:
    """(n, F) stacked signatures for a chunk of subject-like records.

    Accepts anything carrying ``.maps`` (streamed or materialized
    ``ScenarioSubject``s).  Each row is computed independently
    per subject, so concatenating chunk matrices row-wise is bitwise
    identical to building one matrix from the materialized population —
    the invariant the streaming clustering path relies on.
    """
    if not records:
        raise ValueError("cannot build a signature matrix from no records")
    return np.stack(
        [subject_signature(record.maps) for record in records], axis=0
    )
