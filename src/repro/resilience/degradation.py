"""Graceful degradation: impute, fall back, abstain — never emit nonsense.

The paper's edge story is an unattended wearable; when a modality dies
mid-session the runtime cannot ask anyone what to do.  This module
makes the behaviour explicit policy instead of accident:

* :class:`DegradationPolicy` — thresholds and strategies: how to impute
  a dead modality's features, when cold-start assignment confidence is
  too low to trust the cluster checkpoint, and when to abstain because
  too many recent windows were gated.
* :class:`HealthStatus` — the machine-readable record attached to every
  decision made under a policy, so downstream consumers can tell a
  confident prediction from a degraded or held one.
* :class:`DegradationController` — the streaming-side state machine
  used by :class:`repro.edge.streaming.OnlineDetector`.
* :class:`MajorityVote` — the temporal smoothing of raw predictions,
  shared by the edge detector and fleet serving.
* :func:`population_average_model` — the fallback checkpoint used by
  :meth:`repro.core.pipeline.CLEARSystem.predict_with_health` when the
  cluster checkpoint fails verification or assignment confidence is
  below threshold.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..nn.activations import softmax
from ..signals.bvp import NUM_BVP_FEATURES
from ..signals.feature_map import FeatureNormalizer
from ..signals.gsr import NUM_GSR_FEATURES
from ..signals.skt import NUM_SKT_FEATURES
from .guards import impute_features, screen_features

#: Decision states, from best to worst.
HEALTHY = "healthy"
DEGRADED = "degraded"
FALLBACK = "fallback"
ABSTAINED = "abstained"

IMPUTE_STRATEGIES = ("mean", "zero", "drop")


def channel_feature_slices() -> Dict[str, slice]:
    """Where each sensor's features live in the 123-feature vector.

    The canonical ordering is BVP, then GSR, then SKT (see
    :data:`repro.signals.features.ALL_FEATURE_NAMES`) — gating a dead
    channel means imputing exactly its slice.
    """
    b, g, s = NUM_BVP_FEATURES, NUM_GSR_FEATURES, NUM_SKT_FEATURES
    return {
        "bvp": slice(0, b),
        "gsr": slice(b, b + g),
        "skt": slice(b + g, b + g + s),
    }


@dataclass(frozen=True)
class DegradationPolicy:
    """Explicit degraded-mode behaviour for the edge runtime.

    Attributes
    ----------
    min_quality:
        Per-channel overall quality below which the channel is gated.
    impute:
        What replaces a gated channel's (or non-finite) features:
        ``"mean"`` = running mean of recent clean windows, ``"zero"`` =
        zeros (the normalizer's center), ``"drop"`` = zeros plus the
        window counts as gated for abstention purposes even if other
        channels are clean.
    max_gated_fraction / gated_window_memory:
        Abstain (hold the last decision) once more than
        ``max_gated_fraction`` of the last ``gated_window_memory``
        windows were gated.
    min_assignment_margin:
        Cold-start assignment margin below which the cluster checkpoint
        is not trusted and the population-average fallback is used
        (0 disables the check).
    """

    min_quality: float = 0.5
    impute: str = "mean"
    max_gated_fraction: float = 0.5
    gated_window_memory: int = 8
    min_assignment_margin: float = 0.0

    def __post_init__(self) -> None:
        if self.impute not in IMPUTE_STRATEGIES:
            raise ValueError(
                f"impute must be one of {IMPUTE_STRATEGIES}, got {self.impute!r}"
            )
        if not 0.0 <= self.min_quality <= 1.0:
            raise ValueError("min_quality must be in [0, 1]")
        if not 0.0 <= self.max_gated_fraction <= 1.0:
            raise ValueError("max_gated_fraction must be in [0, 1]")
        if self.gated_window_memory < 1:
            raise ValueError("gated_window_memory must be >= 1")
        if self.min_assignment_margin < 0:
            raise ValueError("min_assignment_margin must be >= 0")


@dataclass
class HealthStatus:
    """Machine-readable health of one decision made under a policy."""

    state: str = HEALTHY
    gated_channels: Tuple[str, ...] = ()
    imputed_features: int = 0
    quality_overall: float = 1.0
    gated_recent_fraction: float = 0.0
    assignment_margin: Optional[float] = None
    used_fallback_model: bool = False
    checkpoint_ok: bool = True
    held_last_decision: bool = False
    reasons: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.state == HEALTHY

    def to_dict(self) -> Dict:
        return {
            "state": self.state,
            "ok": self.ok,
            "gated_channels": list(self.gated_channels),
            "imputed_features": self.imputed_features,
            "quality_overall": self.quality_overall,
            "gated_recent_fraction": self.gated_recent_fraction,
            "assignment_margin": self.assignment_margin,
            "used_fallback_model": self.used_fallback_model,
            "checkpoint_ok": self.checkpoint_ok,
            "held_last_decision": self.held_last_decision,
            "reasons": list(self.reasons),
        }


def overload_shed_status(queue_depth: int, limit: int) -> HealthStatus:
    """The health record for a decision shed to the fallback under load.

    Used by :mod:`repro.serving` admission control: when the pending
    queue is past the shed threshold (but below the hard-reject limit),
    the request is answered by the population-average fallback model —
    the same FALLBACK rung the cold-start path uses when assignment
    confidence is too low, reached here for a capacity reason instead
    of a confidence one.  The reason string makes the two
    distinguishable downstream.
    """
    return HealthStatus(
        state=FALLBACK,
        used_fallback_model=True,
        reasons=(
            f"overload_shed:queue_depth={int(queue_depth)}>={int(limit)}",
        ),
    )


def safe_probabilities(logits: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Softmax that is guaranteed finite.

    Returns ``(probs, trustworthy)``: when the logits contain NaN/Inf
    the affected rows are replaced by the uniform distribution and
    ``trustworthy`` is False — the caller must degrade, but whatever it
    emits is still a valid probability vector.
    """
    logits = np.asarray(logits, dtype=np.float64)
    finite_rows = np.isfinite(logits).all(axis=-1)
    if finite_rows.all():
        return softmax(logits, axis=-1), True
    safe = np.where(np.isfinite(logits), logits, 0.0)
    probs = softmax(safe, axis=-1)
    probs[~finite_rows] = 1.0 / logits.shape[-1]
    return probs, False


#: How many of the latest raw predictions a :class:`MajorityVote` counts.
VOTE_WINDOW = 3


class MajorityVote:
    """Temporal smoothing: majority over the last :data:`VOTE_WINDOW` raw
    predictions.

    The one vote shared by the on-device detector
    (:class:`repro.edge.streaming.OnlineDetector`) and fleet serving
    (:class:`repro.serving.sessions.UserSession`).  Ties go to the lower
    class, so a {0, 1} split decides class 0.
    """

    def __init__(self):
        self._recent: Deque[int] = deque(maxlen=VOTE_WINDOW)

    def __call__(self, raw: int) -> int:
        """Record one raw prediction; returns the smoothed decision."""
        self._recent.append(int(raw))
        return int(np.argmax(np.bincount(list(self._recent), minlength=2)))

    def clear(self) -> None:
        self._recent.clear()


class DegradationController:
    """Streaming-side state machine backing ``OnlineDetector``.

    Tracks a running mean of clean feature vectors (the imputation
    source), the gate outcome of recent windows (the abstention
    trigger), and the last emitted decision (what a hold returns).
    """

    def __init__(self, policy: DegradationPolicy):
        self.policy = policy
        self._mean: Optional[np.ndarray] = None
        self._mean_count = 0
        self._recent_gated: Deque[bool] = deque(
            maxlen=policy.gated_window_memory
        )
        self.last_prediction: Optional[int] = None
        self.last_probabilities: Optional[np.ndarray] = None

    # -- imputation source -------------------------------------------------
    @property
    def running_mean(self) -> Optional[np.ndarray]:
        return None if self._mean is None else self._mean.copy()

    def observe_clean(self, vector: np.ndarray) -> None:
        """Fold a clean feature vector into the running mean."""
        vector = np.asarray(vector, dtype=np.float64)
        if self._mean is None:
            self._mean = vector.copy()
            self._mean_count = 1
        else:
            self._mean_count += 1
            self._mean += (vector - self._mean) / self._mean_count

    # -- window screening --------------------------------------------------
    def sanitize(
        self,
        vector: np.ndarray,
        gated_channels: Sequence[str] = (),
    ) -> Tuple[np.ndarray, int]:
        """Impute gated channels + non-finite entries; returns (vector, n_imputed).

        The result is always fully finite, whatever came in.
        """
        vector = np.asarray(vector, dtype=np.float64).copy()
        slices = channel_feature_slices()
        bad = set()
        for channel in gated_channels:
            if channel in slices:
                bad.update(range(*slices[channel].indices(vector.size)))
        bad.update(screen_features(vector).bad_indices)
        if not bad:
            return vector, 0
        fallback = (
            self.running_mean if self.policy.impute == "mean" else None
        )
        out = impute_features(vector, sorted(bad), fallback=fallback, fill=0.0)
        return out, len(bad)

    # -- abstention --------------------------------------------------------
    def record_window(self, gated: bool) -> None:
        self._recent_gated.append(bool(gated))

    @property
    def gated_recent_fraction(self) -> float:
        if not self._recent_gated:
            return 0.0
        return sum(self._recent_gated) / len(self._recent_gated)

    def should_abstain(self) -> bool:
        """True once the recent-gated fraction crosses the policy line."""
        if not self._recent_gated:
            return False
        return self.gated_recent_fraction > self.policy.max_gated_fraction

    def abstain(self) -> Tuple[int, np.ndarray]:
        """Hold the last decision (or emit the uninformative prior)."""
        if self.last_prediction is not None:
            return self.last_prediction, self.last_probabilities.copy()
        return 0, np.array([0.5, 0.5])

    def commit(self, prediction: int, probabilities: np.ndarray) -> None:
        """Remember the decision abstention would hold."""
        self.last_prediction = int(prediction)
        self.last_probabilities = np.asarray(probabilities, dtype=np.float64)

    def reset(self) -> None:
        self._mean = None
        self._mean_count = 0
        self._recent_gated.clear()
        self.last_prediction = None
        self.last_probabilities = None


def average_normalizers(
    normalizers: Sequence[FeatureNormalizer],
) -> FeatureNormalizer:
    """Plain average of fitted normalizer statistics."""
    if not normalizers:
        raise ValueError("need at least one normalizer")
    for n in normalizers:
        if n.mean_ is None or n.std_ is None:
            raise ValueError("every normalizer must be fitted")
    out = FeatureNormalizer()
    out.mean_ = np.mean([n.mean_ for n in normalizers], axis=0)
    out.std_ = np.mean([n.std_ for n in normalizers], axis=0)
    return out


def population_average_model(cluster_models: Mapping[int, "TrainedModel"]):
    """Build the cold-start fallback: the average of all cluster checkpoints.

    A FedAvg-style unweighted average of every cluster model's weights
    and normalizer statistics.  It is nobody's best model, but it is a
    *population prior*: when a new user's assignment is too uncertain
    to trust any single cluster checkpoint (or that checkpoint failed
    integrity verification), predicting with the average is strictly
    safer than committing to an arbitrary cluster.
    """
    from ..core.trainer import TrainedModel

    if not cluster_models:
        raise ValueError("need at least one cluster model to average")
    models = [cluster_models[k] for k in sorted(cluster_models)]
    averaged = copy.deepcopy(models[0].model)
    weight_lists = [m.model.get_weights() for m in models]
    mean_weights: List[Dict[str, np.ndarray]] = []
    for layer_idx in range(len(weight_lists[0])):
        layer_avg = {
            key: np.mean(
                [weights[layer_idx][key] for weights in weight_lists], axis=0
            )
            for key in weight_lists[0][layer_idx]
        }
        mean_weights.append(layer_avg)
    averaged.set_weights(mean_weights)
    return TrainedModel(
        model=averaged,
        normalizer=average_normalizers([m.normalizer for m in models]),
    )
