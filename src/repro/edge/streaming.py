"""Streaming (real-time) inference at the edge.

The paper motivates CLEAR with *real-time detection* on wearables: raw
BVP/GSR/SKT samples arrive continuously, and the device must window
them, extract features, maintain a rolling feature map, and classify —
all incrementally.  This module provides that runtime:

* :class:`RingBuffer` — fixed-capacity sample buffer per channel.
* :class:`StreamingFeatureExtractor` — turns sample streams into
  feature vectors every hop.
* :class:`OnlineDetector` — maintains the rolling F x W feature map,
  classifies on every new window, and smooths decisions over time.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from ..core.trainer import TrainedModel
from ..resilience.degradation import (
    ABSTAINED,
    DEGRADED,
    HEALTHY,
    DegradationController,
    DegradationPolicy,
    HealthStatus,
    MajorityVote,
    safe_probabilities,
)
from ..signals.feature_map import FeatureMap, maps_to_arrays
from ..signals.features import FeatureExtractor, SensorRates
from ..signals.quality import quality_report


class RingBuffer:
    """Fixed-capacity float buffer holding the newest samples.

    Appends beyond capacity discard the oldest samples.  ``latest(n)``
    returns the most recent ``n`` samples in chronological order.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data = np.zeros(self.capacity, dtype=np.float64)
        self._write = 0  # next write position
        self._count = 0  # valid samples (<= capacity)
        self.total_seen = 0  # samples ever pushed

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self.capacity

    def append(self, samples: Sequence[float]) -> None:
        """Append samples (oldest first); O(len(samples))."""
        samples = np.asarray(samples, dtype=np.float64).ravel()
        self.total_seen += samples.size
        if samples.size >= self.capacity:
            # Only the newest `capacity` samples survive anyway.
            self._data[:] = samples[-self.capacity :]
            self._write = 0
            self._count = self.capacity
            return
        first = min(samples.size, self.capacity - self._write)
        self._data[self._write : self._write + first] = samples[:first]
        rest = samples.size - first
        if rest:
            self._data[:rest] = samples[first:]
        self._write = (self._write + samples.size) % self.capacity
        self._count = min(self.capacity, self._count + samples.size)

    def latest(self, n: Optional[int] = None) -> np.ndarray:
        """The newest ``n`` samples (default: all) in time order."""
        if n is None:
            n = self._count
        if n < 0 or n > self._count:
            raise ValueError(f"cannot read {n} samples, have {self._count}")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        end = self._write
        start = (end - n) % self.capacity
        if start < end:
            return self._data[start:end].copy()
        # Wrapped read (also covers the full-buffer case start == end).
        return np.concatenate([self._data[start:], self._data[:end]])


@dataclass
class WindowEvent:
    """One emitted feature vector with its stream position.

    ``signals`` carries the raw per-channel window the vector came
    from (for quality gating); ``error`` is set instead of ``features``
    when extraction failed and the extractor runs with
    ``capture_errors=True`` (corrupt input must surface as a gated
    window, not a raw numpy traceback).
    """

    index: int  # running window counter
    features: Optional[np.ndarray]  # (F,) — None if extraction failed
    signals: Optional[Dict[str, np.ndarray]] = None
    error: Optional[str] = None


class StreamingFeatureExtractor:
    """Incremental windowed feature extraction over three channels.

    Samples are pushed with :meth:`push`; whenever every channel has
    accumulated a full analysis window *and* a hop has elapsed since
    the previous emission, the 123-feature vector of the newest window
    is emitted.
    """

    def __init__(
        self,
        rates: Optional[SensorRates] = None,
        window_seconds: float = 10.0,
        hop_seconds: Optional[float] = None,
        capture_errors: bool = False,
    ):
        self.capture_errors = bool(capture_errors)
        self.extractor = FeatureExtractor(
            rates=rates or SensorRates(), window_seconds=window_seconds
        )
        self.window_seconds = float(window_seconds)
        self.hop_seconds = float(
            hop_seconds if hop_seconds is not None else window_seconds
        )
        if self.hop_seconds <= 0:
            raise ValueError("hop_seconds must be positive")
        r = self.extractor.rates
        self._buffers: Dict[str, RingBuffer] = {
            "bvp": RingBuffer(int(self.window_seconds * r.bvp)),
            "gsr": RingBuffer(int(self.window_seconds * r.gsr)),
            "skt": RingBuffer(int(self.window_seconds * r.skt)),
        }
        self.channel_rates = {"bvp": r.bvp, "gsr": r.gsr, "skt": r.skt}
        self._emitted = 0
        self._next_emit_time = self.window_seconds

    @property
    def stream_time(self) -> float:
        """Seconds of signal consumed so far (per the BVP channel)."""
        return self._buffers["bvp"].total_seen / self.channel_rates["bvp"]

    def push(
        self,
        bvp: Sequence[float] = (),
        gsr: Sequence[float] = (),
        skt: Sequence[float] = (),
    ) -> List[WindowEvent]:
        """Feed new samples; returns feature vectors that became ready.

        A push spanning several hops is replayed hop by hop: every
        window but the push's last ends at its own hop boundary, so a
        bulk push emits the same windows as hop-sized pushes.  The last
        window sees every pushed sample, as a single-hop push does.
        """
        pending = {
            "bvp": np.asarray(bvp, dtype=np.float64).ravel(),
            "gsr": np.asarray(gsr, dtype=np.float64).ravel(),
            "skt": np.asarray(skt, dtype=np.float64).ravel(),
        }
        events: List[WindowEvent] = []
        while True:
            backlog = all(
                pending[name].size >= self._due(name, hops=1)
                for name in self._buffers
            )
            for name, buf in self._buffers.items():
                take = pending[name].size
                if backlog:
                    take = min(max(self._due(name), 0), take)
                buf.append(pending[name][:take])
                pending[name] = pending[name][take:]
            if not self._ready():
                return events
            events.append(self._emit())

    def _emit(self) -> WindowEvent:
        window = {name: buf.latest() for name, buf in self._buffers.items()}
        vector: Optional[np.ndarray] = None
        error: Optional[str] = None
        try:
            vector = self.extractor.extract_window(
                window["bvp"], window["gsr"], window["skt"]
            )
        except Exception as exc:
            # Corrupt samples (NaN bursts, flatlines) can break the
            # DSP internals; with capture_errors the failure becomes
            # a gated window instead of a raw traceback.
            if not self.capture_errors:
                raise
            error = f"{type(exc).__name__}: {exc}"
        event = WindowEvent(
            index=self._emitted, features=vector, signals=window, error=error
        )
        self._emitted += 1
        self._next_emit_time += self.hop_seconds
        return event

    def _due(self, name: str, hops: int = 0) -> int:
        """Samples channel ``name`` still needs to reach an emission time.

        ``hops=0`` is the next emission, ``hops=1`` the one after it.
        """
        time = self._next_emit_time + hops * self.hop_seconds
        needed = math.ceil((time - 1e-9) * self.channel_rates[name])
        return needed - self._buffers[name].total_seen

    def _ready(self) -> bool:
        # Every channel must hold a full window and have advanced past
        # the next emission time.
        return all(
            buf.full and self._due(name) <= 0
            for name, buf in self._buffers.items()
        )


@dataclass
class Detection:
    """One smoothed classification decision.

    ``probabilities`` are guaranteed finite; ``health`` records whether
    the decision was healthy, degraded by imputation, or held.
    """

    window_index: int
    raw_prediction: int
    smoothed_prediction: int
    stream_time: float
    probabilities: np.ndarray
    health: HealthStatus


class OnlineDetector:
    """Rolling feature-map classification with temporal smoothing.

    Maintains the last W window vectors as the model's F x W input and
    classifies after every new window once the map is full.  The final
    decision is a majority vote over the last ``smoothing`` raw
    predictions, suppressing single-window flickers — the standard
    trick for stable real-time emotion detection.  Every window runs
    under a :class:`~repro.resilience.degradation.DegradationPolicy`
    (``policy=None`` means the default policy): corrupt channels are
    gated and imputed, and sustained corruption holds the last decision.
    """

    def __init__(
        self,
        model: TrainedModel,
        windows_per_map: int,
        streaming: StreamingFeatureExtractor,
        smoothing: int = 3,
        policy: Optional[DegradationPolicy] = None,
    ):
        if windows_per_map < 1:
            raise ValueError("windows_per_map must be >= 1")
        self.model = model
        self.windows_per_map = int(windows_per_map)
        self.streaming = streaming
        self.smoothing = int(smoothing)
        self._vote = MajorityVote(self.smoothing)
        self.policy = policy if policy is not None else DegradationPolicy()
        self._controller = DegradationController(self.policy)
        # Corrupt input must surface as a gated window; extraction
        # failures are handled explicitly below.
        streaming.capture_errors = True
        self._vectors: Deque[np.ndarray] = deque(maxlen=self.windows_per_map)
        self.detections: List[Detection] = []

    def push(
        self,
        bvp: Sequence[float] = (),
        gsr: Sequence[float] = (),
        skt: Sequence[float] = (),
    ) -> List[Detection]:
        """Feed raw samples; returns any new (smoothed) detections."""
        new_detections: List[Detection] = []
        for event in self.streaming.push(bvp=bvp, gsr=gsr, skt=skt):
            detection = self._classify(event)
            if detection is not None:
                self.detections.append(detection)
                new_detections.append(detection)
        return new_detections

    def _classify(self, event: WindowEvent) -> Optional[Detection]:
        """Gate, impute or abstain, then classify — always with health."""
        ctrl = self._controller
        policy = self.policy
        reasons: List[str] = []
        gated_channels: tuple = ()
        quality_overall = 1.0

        if event.signals is not None and all(
            v.size >= 3 for v in event.signals.values()
        ):
            report = quality_report(
                event.signals,
                self.streaming.channel_rates,
                min_overall=policy.min_quality,
            )
            quality_overall = report.overall
            gated_channels = report.failing
            if report.failing:
                reasons.append(f"low_quality:{','.join(report.failing)}")

        if event.features is None:
            # Extraction itself failed; treat every channel as gated and
            # impute the whole vector from history (or zeros).
            reasons.append(f"extraction_error:{event.error}")
            base = ctrl.running_mean
            if base is None:
                base = np.zeros(len(self.streaming.extractor.feature_names))
            vector, n_imputed = ctrl.sanitize(base, ())
            window_gated = True
        else:
            vector, n_imputed = ctrl.sanitize(event.features, gated_channels)
            window_gated = bool(gated_channels) or (
                n_imputed > 0 and policy.impute == "drop"
            )
            if n_imputed and not gated_channels:
                reasons.append(f"non_finite_features:{n_imputed}")
        if window_gated:
            ctrl.record_window(True)
        else:
            ctrl.record_window(False)
            ctrl.observe_clean(vector)

        self._vectors.append(vector)
        if len(self._vectors) < self.windows_per_map:
            return None

        state = HEALTHY
        held = False
        if ctrl.should_abstain():
            reasons.append(
                f"too_many_gated_windows:{ctrl.gated_recent_fraction:.2f}"
            )
            raw, probs = ctrl.abstain()
            state, held = ABSTAINED, True
        else:
            rolling = FeatureMap(
                np.stack(self._vectors, axis=1), label=0, subject_id=-1
            )
            x, _ = maps_to_arrays(self.model.normalizer.transform_all([rolling]))
            probs_row, trustworthy = safe_probabilities(self.model.model.predict(x))
            probs = probs_row[0]
            if not trustworthy:
                reasons.append("non_finite_model_output")
                raw, probs = ctrl.abstain()
                state, held = ABSTAINED, True
            else:
                raw = int(np.argmax(probs))
                ctrl.commit(raw, probs)
                if window_gated or n_imputed:
                    state = DEGRADED
        health = HealthStatus(
            state=state,
            gated_channels=tuple(gated_channels),
            imputed_features=int(n_imputed),
            quality_overall=float(quality_overall),
            gated_recent_fraction=float(ctrl.gated_recent_fraction),
            held_last_decision=held,
            reasons=tuple(reasons),
        )
        return Detection(
            window_index=event.index,
            raw_prediction=raw,
            smoothed_prediction=self._vote(raw),
            stream_time=self.streaming.stream_time,
            probabilities=np.asarray(probs, dtype=np.float64),
            health=health,
        )

    def reset(self) -> None:
        """Forget stream state (e.g. when the wearable is re-donned)."""
        self._vectors.clear()
        self._vote.clear()
        self.detections.clear()
        self._controller.reset()
