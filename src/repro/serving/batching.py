"""The micro-batcher: coalesce same-group requests, run canonical slabs.

This module is the serving layer's **only** inference entry point (lint
rule RPR020 enforces it): requests are bucketed by ``(group key,
feature shape)`` — same model, stackable inputs — and each flush runs
one :meth:`~repro.nn.model.Sequential.predict_many` call on canonical
``canonical_rows``-row slabs.  Fixed-shape execution is what upgrades
micro-batching from "approximately equal" to **bit-identical**: BLAS
selects kernels (and therefore last-ulp rounding) by operand shape, so
at one fixed shape a request's logits cannot depend on which other
requests shared its batch.  A sequential server (``max_batch=1``) and
a fully coalesced one produce byte-identical logits.

Flush policy is the classic pair: a bucket flushes when it holds
``max_batch`` requests (amortization bound) or when its oldest request
has waited ``max_wait_s`` on the injectable clock (latency bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.trainer import TrainedModel
from ..signals.feature_map import FeatureMap, maps_to_arrays
from .registry import GroupKey

#: Bucket key: the model group plus the request feature shape — two
#: requests coalesce iff they share both.
BucketKey = Tuple[GroupKey, Tuple[int, ...]]


@dataclass(frozen=True)
class BatchPolicy:
    """When buckets flush and at what canonical execution shape.

    Attributes
    ----------
    max_batch:
        Flush a bucket as soon as it holds this many requests.
        ``1`` degenerates to sequential serving — the bit-identity
        reference the benchmarks compare against.
    max_wait_s:
        Latency bound: flush a bucket once its oldest request has
        waited this long (on the injected clock), full or not.
    canonical_rows:
        The fixed slab height every forward runs at (last slab
        zero-padded).  Must be identical between the batched server and
        its sequential reference for their outputs to be bit-identical.
    """

    max_batch: int = 32
    max_wait_s: float = 0.05
    canonical_rows: int = 32

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if self.canonical_rows < 1:
            raise ValueError("canonical_rows must be >= 1")


@dataclass
class PendingRequest:
    """One enqueued inference request."""

    user_id: int
    request_index: int
    fmap: FeatureMap
    enqueued_at: float  # injected-clock time at submit
    wall_enqueued: Optional[float] = None  # wall_timer() at submit, if any
    shed: bool = False  # admission routed this to the population fallback
    shed_depth: int = 0  # queue depth that triggered the shed


@dataclass
class FlushResult:
    """One flushed bucket: per-request logits plus batch accounting."""

    key: BucketKey
    completed: List[Tuple[PendingRequest, np.ndarray]] = field(
        default_factory=list
    )
    batch_size: int = 0


class MicroBatcher:
    """Shape-bucketed request coalescing over an injectable clock."""

    def __init__(self, policy: BatchPolicy, clock):
        self.policy = policy
        self.clock = clock
        self._buckets: Dict[BucketKey, List[PendingRequest]] = {}
        self.batches_flushed = 0
        self.rows_flushed = 0

    # -- enqueue -----------------------------------------------------------
    def submit(self, group: GroupKey, request: PendingRequest) -> BucketKey:
        """Bucket a request by (group, feature shape); returns its bucket."""
        key = (tuple(group), tuple(request.fmap.values.shape))
        self._buckets.setdefault(key, []).append(request)
        return key

    def depth(self) -> int:
        """Total requests currently pending across all buckets."""
        return sum(len(bucket) for bucket in self._buckets.values())

    def keys(self) -> List[BucketKey]:
        """Non-empty buckets, oldest-created first (dict insertion order)."""
        return list(self._buckets)

    def due_keys(self, now: Optional[float] = None) -> List[BucketKey]:
        """Buckets that must flush now: full, or oldest past max_wait_s."""
        if now is None:
            now = self.clock.now()
        due: List[BucketKey] = []
        for key, bucket in self._buckets.items():
            if len(bucket) >= self.policy.max_batch:
                due.append(key)
            elif bucket and now - bucket[0].enqueued_at >= self.policy.max_wait_s:
                due.append(key)
        return due

    def oldest_wait(self, now: Optional[float] = None) -> float:
        """How long the oldest pending request has waited (0 if empty)."""
        if now is None:
            now = self.clock.now()
        oldest = [
            bucket[0].enqueued_at
            for bucket in self._buckets.values()
            if bucket
        ]
        return max(0.0, now - min(oldest)) if oldest else 0.0

    # -- flush -------------------------------------------------------------
    def pop_batch(self, key: BucketKey) -> List[PendingRequest]:
        """Dequeue up to ``max_batch`` requests from a bucket, FIFO."""
        bucket = self._buckets.get(key)
        if not bucket:
            self._buckets.pop(key, None)
            return []
        batch = bucket[: self.policy.max_batch]
        remaining = bucket[self.policy.max_batch :]
        if remaining:
            self._buckets[key] = remaining
        else:
            del self._buckets[key]
        return batch

    def flush(self, key: BucketKey, model: TrainedModel) -> FlushResult:
        """Run one coalesced forward for a bucket's next batch.

        Normalization (elementwise, hence grouping-invariant) uses the
        group model's own normalizer; the stacked batch then runs on
        canonical ``canonical_rows`` slabs via ``predict_many`` — the
        single sanctioned inference call of the serving layer.
        """
        batch = self.pop_batch(key)
        result = FlushResult(key=key, batch_size=len(batch))
        if not batch:
            return result
        normalized = model.normalizer.transform_all([r.fmap for r in batch])
        x, _ = maps_to_arrays(normalized)
        logits = model.model.predict_many(
            [x], pad_rows=self.policy.canonical_rows
        )[0]
        result.completed = [
            (request, logits[row]) for row, request in enumerate(batch)
        ]
        self.batches_flushed += 1
        self.rows_flushed += len(batch)
        return result
