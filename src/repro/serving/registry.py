"""Warm model registry: LRU-bounded pool with cache/file rehydration.

A fleet server cannot hold every personalized checkpoint in memory, but
reloading a model on every request would erase the point of serving.
The registry keeps an LRU-bounded *warm pool* of loaded
:class:`~repro.core.trainer.TrainedModel` entries keyed by group —
``("cluster", c)`` for shared cluster checkpoints, ``("user", uid)``
for personalized ones — and spills evicted entries into the
content-addressed serving cache namespace (or reloads file-backed
checkpoints), so eviction is a latency event, never a correctness one.

The population-average fallback model is *pinned*: admission-control
shedding routes overload traffic to it, so it must never be evicted.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.trainer import TrainedModel
from ..errors import ServingError

#: Model group key: ``("cluster", c)``, ``("user", uid)``, ``("population",)``.
GroupKey = Tuple


@dataclass
class RegistryStats:
    """Warm-pool traffic counters for one registry."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rehydrations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rehydrations": self.rehydrations,
            "hit_rate": self.hit_rate,
        }


class WarmModelPool:
    """LRU-bounded mapping of group key to loaded model.

    Pure bookkeeping: eviction policy lives here, rehydration policy in
    :class:`ClusterModelRegistry` (which must ensure a durable source
    exists *before* letting an entry fall off the end).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[GroupKey, TrainedModel]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: GroupKey) -> bool:
        return key in self._entries

    def keys(self) -> List[GroupKey]:
        """Keys from least- to most-recently used."""
        return list(self._entries)

    def peek_lru(self) -> Optional[GroupKey]:
        """The key next in line for eviction (no recency update)."""
        return next(iter(self._entries), None)

    def get(self, key: GroupKey) -> Optional[TrainedModel]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: GroupKey, model: TrainedModel) -> List[GroupKey]:
        """Insert (or refresh) an entry; returns the evicted keys."""
        self._entries[key] = model
        self._entries.move_to_end(key)
        evicted: List[GroupKey] = []
        while len(self._entries) > self.capacity:
            victim, _ = self._entries.popitem(last=False)
            evicted.append(victim)
        return evicted


class ClusterModelRegistry:
    """Group-keyed model registry with a warm pool and durable sources.

    Parameters
    ----------
    cache_dir:
        Root of the content-addressed runtime cache.  When given,
        registered models are pickled into the ``serving_models``
        namespace so warm-pool eviction is safe; without it, the pool
        refuses to evict an in-memory-only entry (typed
        :class:`~repro.errors.ServingError`) rather than silently
        dropping a model.
    capacity:
        Warm-pool size (the population fallback is pinned outside it).
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        capacity: int = 8,
    ):
        self._pool = WarmModelPool(capacity)
        self._cache = None
        if cache_dir is not None:
            from ..orchestration.context import open_serving_model_cache

            self._cache = open_serving_model_cache(cache_dir)
        # key -> ("cache", content_key) | ("file", path, normalizer)
        self._sources: Dict[GroupKey, Tuple] = {}
        self._population: Optional[TrainedModel] = None
        self.stats = RegistryStats()

    # -- registration ------------------------------------------------------
    def register(self, key: GroupKey, trained: TrainedModel) -> None:
        """Add a loaded model to the warm pool (spilling to cache if set)."""
        key = tuple(key)
        if self._cache is not None:
            content_key = self._cache.key("serving_model.v1", list(key))
            self._cache.store_object(content_key, trained)
            self._sources[key] = ("cache", content_key)
        self._admit(key, trained)

    def register_checkpoint(
        self,
        key: GroupKey,
        path: Union[str, Path],
        normalizer,
    ) -> None:
        """Register a file-backed checkpoint, loaded lazily on first use.

        The checkpoint file itself is the durable source, so these
        entries are always safely evictable.
        """
        self._sources[tuple(key)] = ("file", str(path), normalizer)

    def set_population(self, trained: TrainedModel) -> None:
        """Pin the population-average fallback (never pooled, never evicted)."""
        self._population = trained

    def population(self) -> TrainedModel:
        if self._population is None:
            raise ServingError(
                "no population fallback model registered; call "
                "set_population() before serving under load shedding"
            )
        return self._population

    # -- lookup ------------------------------------------------------------
    def model_for(self, key: GroupKey) -> TrainedModel:
        """The warm model for ``key``, rehydrating on a pool miss."""
        key = tuple(key)
        entry = self._pool.get(key)
        if entry is not None:
            self.stats.hits += 1
            return entry
        source = self._sources.get(key)
        if source is None:
            raise ServingError(f"no model registered for group {key!r}")
        self.stats.misses += 1
        entry = self._rehydrate(key, source)
        self.stats.rehydrations += 1
        self._admit(key, entry)
        return entry

    def registered(self, key: GroupKey) -> bool:
        key = tuple(key)
        return key in self._pool or key in self._sources

    def warm_keys(self) -> List[GroupKey]:
        return self._pool.keys()

    # -- internals ---------------------------------------------------------
    def _rehydrate(self, key: GroupKey, source: Tuple) -> TrainedModel:
        if source[0] == "cache":
            obj = self._cache.load_object(source[1])
            if obj is None:
                raise ServingError(
                    f"serving cache entry for group {key!r} has vanished; "
                    f"re-register the model"
                )
            return obj
        _, path, normalizer = source
        from ..nn.checkpoint import load_model

        return TrainedModel(
            model=load_model(path),
            normalizer=normalizer,
        )

    def _admit(self, key: GroupKey, entry: TrainedModel) -> None:
        # Refuse to evict a model that has no durable source — losing a
        # trained checkpoint to LRU pressure would be a silent data
        # loss, the opposite of a latency tradeoff.
        if len(self._pool) >= self._pool.capacity and key not in self._pool:
            victim = self._pool.peek_lru()
            if victim not in self._sources:
                raise ServingError(
                    f"warm pool is full (capacity {self._pool.capacity}) and "
                    f"the LRU entry {victim!r} has no cache/file source to "
                    f"evict into; raise capacity or construct the registry "
                    f"with a cache_dir"
                )
        self.stats.evictions += len(self._pool.put(key, entry))
