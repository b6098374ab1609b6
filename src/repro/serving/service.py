"""The serving facade: sessions + registry + batcher + admission.

:class:`InferenceService` wires a fitted
:class:`~repro.core.pipeline.CLEARSystem` into an online server:
``connect`` runs the unsupervised cold-start assignment, ``submit``
enqueues a feature map through admission control, ``pump`` flushes the
micro-batcher's due buckets, and ``personalize`` fine-tunes a private
checkpoint and re-routes the user to it.

Results are released through a per-user reorder buffer in request
order, because temporal smoothing is order-dependent — this is what
makes a fully coalesced server's decision stream **bit-identical** to
a sequential one (``sequential=True``), whatever order buckets flushed
in.  :func:`results_fingerprint` condenses a result set into one
SHA-256 hex digest over the order-independent decision content, the
quantity benchmarks and golden tests pin.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.pipeline import CLEARSystem
from ..core.trainer import TrainedModel
from ..errors import AdmissionError, ServingError
from ..resilience.degradation import (
    DEGRADED,
    HEALTHY,
    HealthStatus,
    overload_shed_status,
    safe_probabilities,
)
from ..resilience.retry import Clock, MonotonicClock
from ..signals.feature_map import FeatureMap
from .admission import REJECT, SHED, AdmissionController, AdmissionPolicy
from .batching import BatchPolicy, BucketKey, MicroBatcher, PendingRequest
from .registry import ClusterModelRegistry, GroupKey
from .sessions import UserSession

POPULATION_GROUP: GroupKey = ("population",)


@dataclass
class ServingResult:
    """One released decision with its health and serving accounting."""

    user_id: int
    request_index: int
    raw: int
    smoothed: int
    probabilities: np.ndarray
    health: HealthStatus
    batch_size: int = 1
    latency_s: float = 0.0  # injected-clock submit-to-release latency
    wall_latency_s: Optional[float] = None  # wall_timer latency, if timed


def results_fingerprint(
    results: Sequence[ServingResult], scenario: Optional[str] = None
) -> str:
    """SHA-256 over the order-independent decision content.

    Covers ``(user, request, raw, smoothed, probabilities, fallback?)``
    sorted by ``(user, request)`` — so two servers that made the same
    decisions fingerprint identically no matter how their batches were
    coalesced or interleaved.  Batch sizes and latencies are serving
    accounting, not decisions, and are deliberately excluded.

    ``scenario`` domain-separates the digest: golden fingerprints pinned
    for one named population can never silently collide with another
    scenario's decision stream.  ``None`` (the legacy anonymous corpus)
    hashes exactly as before, so existing pinned digests are unchanged.
    """
    h = hashlib.sha256()
    if scenario:
        h.update(b"scenario\x00")
        h.update(str(scenario).encode())
        h.update(b"\x00")
    ordered = sorted(
        results, key=lambda r: (int(r.user_id), int(r.request_index))
    )
    for r in ordered:
        h.update(f"{int(r.user_id)}:{int(r.request_index)}:".encode())
        h.update(f"{int(r.raw)}:{int(r.smoothed)}:".encode())
        h.update(b"f" if r.health.used_fallback_model else b"h")
        probs = np.ascontiguousarray(
            np.asarray(r.probabilities, dtype=np.float64)
        )
        h.update(probs.tobytes())
    return h.hexdigest()


class InferenceService:
    """Fleet-scale micro-batched online inference over a fitted system.

    Parameters
    ----------
    system:
        The fitted CLEAR deployment (clusters, assigner, checkpoints).
    batch_policy / admission:
        Micro-batching and overload policies (defaults are sensible).
    clock:
        Injectable time source; benchmarks and tests pass a
        :class:`~repro.resilience.retry.FakeClock` so arrival schedules
        are virtual and deterministic.
    cache_dir:
        Optional runtime-cache root; enables warm-pool eviction of
        registered models into the serving cache namespace.  The warm
        pool holds every cluster model plus eight personalized
        checkpoints.
    sequential:
        Force ``max_batch=1``: every request runs in its own flush on
        the same canonical slabs.  This is the bit-identity reference
        the micro-batched mode is compared against.
    wall_timer:
        Optional zero-argument callable returning wall seconds (pass
        ``time.perf_counter`` from benchmark code) used *only* to
        annotate results with wall latencies; library code itself
        stays wall-clock-free.
    """

    def __init__(
        self,
        system: CLEARSystem,
        batch_policy: Optional[BatchPolicy] = None,
        admission: Optional[AdmissionPolicy] = None,
        clock: Optional[Clock] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        sequential: bool = False,
        wall_timer: Optional[Callable[[], float]] = None,
    ):
        self.system = system
        self.clock = clock if clock is not None else MonotonicClock()
        policy = batch_policy or BatchPolicy()
        if sequential:
            policy = replace(policy, max_batch=1)
        self.sequential = bool(sequential)
        self.batcher = MicroBatcher(policy, self.clock)
        self.admission = AdmissionController(admission)
        self.sessions: Dict[int, UserSession] = {}
        self.wall_timer = wall_timer
        self.registry = ClusterModelRegistry(
            cache_dir=cache_dir, capacity=len(system.cluster_models) + 8
        )
        for cluster in sorted(system.cluster_models):
            self.registry.register(
                ("cluster", cluster), system.cluster_models[cluster]
            )
        self.registry.set_population(system.population_model())
        self.results: List[ServingResult] = []
        self.personalizations = 0

    # -- lifecycle ---------------------------------------------------------
    def connect(
        self, user_id: int, cold_maps: Sequence[FeatureMap]
    ) -> UserSession:
        """Cold-start a new user: assign a cluster, open a session."""
        user_id = int(user_id)
        if user_id in self.sessions:
            raise ServingError(f"user {user_id} is already connected")
        assignment = self.system.assign_new_user(cold_maps)
        session = UserSession(
            user_id=user_id,
            cluster=assignment.cluster,
            margin=assignment.margin(),
        )
        self.sessions[user_id] = session
        return session

    def personalize(
        self,
        user_id: int,
        labeled_maps: Sequence[FeatureMap],
        seed: Optional[int] = None,
    ) -> TrainedModel:
        """Fine-tune a private checkpoint and re-route the user to it.

        Pending work is drained first so every request the user
        submitted *before* personalizing is still answered by the
        cluster checkpoint — the swap happens at a quiesced boundary,
        keeping the decision stream independent of flush timing.
        """
        self.drain()
        session = self._session(user_id)
        if seed is None:
            seed = self.system.config.seed + int(user_id)
        tuned = self.system.personalize(
            labeled_maps, cluster=session.cluster, seed=seed
        )
        self.registry.register(("user", session.user_id), tuned)
        session.mark_personalized()
        self.personalizations += 1
        return tuned

    # -- request path ------------------------------------------------------
    def submit(self, user_id: int, fmap: FeatureMap) -> int:
        """Enqueue one feature map through admission control.

        Returns the per-user request index.  Overload below the hard
        limit sheds the request to the population fallback (recorded in
        its HealthStatus); past the hard limit raises
        :class:`~repro.errors.AdmissionError`.
        """
        session = self._session(user_id)
        depth = self.batcher.depth()
        decision = self.admission.admit(depth)
        if decision == REJECT:
            raise AdmissionError(
                f"rejecting request from user {user_id}: {depth} pending "
                f">= hard limit {self.admission.policy.hard_limit}",
                queue_depth=depth,
                limit=self.admission.policy.hard_limit,
            )
        shed = decision == SHED
        request = PendingRequest(
            user_id=session.user_id,
            request_index=session.next_request_index(),
            fmap=fmap,
            enqueued_at=self.clock.now(),
            wall_enqueued=self.wall_timer() if self.wall_timer else None,
            shed=shed,
            shed_depth=depth,
        )
        group = POPULATION_GROUP if shed else session.group_key()
        self.batcher.submit(group, request)
        return request.request_index

    def pump(self) -> List[ServingResult]:
        """Flush every due bucket; returns the newly released results."""
        now = self.clock.now()
        released: List[ServingResult] = []
        for key in self.batcher.due_keys(now):
            released.extend(self._flush(key))
        return released

    def drain(self) -> List[ServingResult]:
        """Flush everything pending, due or not (shutdown / quiesce)."""
        released: List[ServingResult] = []
        while self.batcher.depth():
            for key in self.batcher.keys():
                released.extend(self._flush(key))
        return released

    # -- internals ---------------------------------------------------------
    def _session(self, user_id: int) -> UserSession:
        session = self.sessions.get(int(user_id))
        if session is None:
            raise ServingError(
                f"no session for user {user_id}; call connect() first"
            )
        return session

    def _model_for_group(self, group: GroupKey) -> TrainedModel:
        if tuple(group) == POPULATION_GROUP:
            return self.registry.population()
        return self.registry.model_for(group)

    def _flush(self, key: BucketKey) -> List[ServingResult]:
        group, _ = key
        flush = self.batcher.flush(key, self._model_for_group(group))
        touched: List[UserSession] = []
        for request, logits in flush.completed:
            session = self.sessions[request.user_id]
            session.hold(
                request.request_index, (request, logits, flush.batch_size)
            )
            touched.append(session)
        released: List[ServingResult] = []
        for session in touched:
            for _, payload in session.release_ready():
                released.append(self._emit(session, *payload))
        self.results.extend(released)
        return released

    def _emit(
        self,
        session: UserSession,
        request: PendingRequest,
        logits: np.ndarray,
        batch_size: int,
    ) -> ServingResult:
        probs_rows, trustworthy = safe_probabilities(
            np.asarray(logits, dtype=np.float64).reshape(1, -1)
        )
        probs = probs_rows[0]
        raw = int(np.argmax(probs))
        smoothed = session.smooth(raw)
        if request.shed:
            health = overload_shed_status(
                request.shed_depth, self.admission.policy.max_pending
            )
        elif not trustworthy:
            health = HealthStatus(
                state=DEGRADED,
                assignment_margin=session.margin,
                checkpoint_ok=False,
                reasons=("non_finite_model_output",),
            )
        else:
            health = HealthStatus(
                state=HEALTHY, assignment_margin=session.margin
            )
        wall_latency = None
        if self.wall_timer is not None and request.wall_enqueued is not None:
            wall_latency = self.wall_timer() - request.wall_enqueued
        return ServingResult(
            user_id=session.user_id,
            request_index=request.request_index,
            raw=raw,
            smoothed=smoothed,
            probabilities=probs,
            health=health,
            batch_size=batch_size,
            latency_s=self.clock.now() - request.enqueued_at,
            wall_latency_s=wall_latency,
        )

    # -- introspection -----------------------------------------------------
    def metrics(self) -> Dict:
        """Serving counters: admission, batching, registry, sessions."""
        sizes = [r.batch_size for r in self.results]
        return {
            "decisions": len(self.results),
            "sessions": len(self.sessions),
            "personalizations": self.personalizations,
            "pending": self.batcher.depth(),
            "batches_flushed": self.batcher.batches_flushed,
            "rows_flushed": self.batcher.rows_flushed,
            "mean_batch_size": float(np.mean(sizes)) if sizes else 0.0,
            "admission": self.admission.to_dict(),
            "registry": self.registry.stats.to_dict(),
        }
