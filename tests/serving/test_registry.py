"""Warm model pool + registry: LRU, spill-to-cache, rehydration, backends."""

import pytest

from repro.core.trainer import TrainedModel
from repro.errors import ServingError
from repro.nn.checkpoint import save_model
from repro.serving import ClusterModelRegistry, WarmModelPool


def _models(system, n=3):
    clusters = sorted(system.cluster_models)[:n]
    return [(("cluster", c), system.cluster_models[c]) for c in clusters]


class TestWarmModelPool:
    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            WarmModelPool(0)

    def test_lru_eviction_order(self, serving_system):
        pool = WarmModelPool(2)
        (k0, m0), (k1, m1), (k2, m2) = _models(serving_system, 3)
        assert pool.put(k0, m0) == []
        assert pool.put(k1, m1) == []
        pool.get(k0)  # refresh k0: k1 becomes LRU
        assert pool.put(k2, m2) == [k1]
        assert k0 in pool and k2 in pool and k1 not in pool

    def test_peek_lru(self, serving_system):
        pool = WarmModelPool(4)
        (k0, m0), (k1, m1) = _models(serving_system, 2)
        pool.put(k0, m0)
        pool.put(k1, m1)
        assert pool.peek_lru() == k0
        pool.get(k0)
        assert pool.peek_lru() == k1


class TestRegistry:
    def test_register_and_lookup_counts_hits(self, serving_system):
        reg = ClusterModelRegistry(capacity=8)
        for key, model in _models(serving_system):
            reg.register(key, model)
        got = reg.model_for(("cluster", 0))
        assert got is serving_system.cluster_models[0]
        assert reg.stats.hits == 1 and reg.stats.misses == 0

    def test_unknown_group_is_typed(self, serving_system):
        reg = ClusterModelRegistry(capacity=2)
        with pytest.raises(ServingError, match="no model registered"):
            reg.model_for(("cluster", 99))

    def test_eviction_without_cache_is_refused(self, serving_system):
        reg = ClusterModelRegistry(capacity=2)
        models = _models(serving_system, 3)
        reg.register(*models[0])
        reg.register(*models[1])
        with pytest.raises(ServingError, match="no cache/file source"):
            reg.register(*models[2])

    def test_eviction_with_cache_rehydrates(self, serving_system, tmp_path):
        reg = ClusterModelRegistry(cache_dir=tmp_path, capacity=2)
        models = _models(serving_system, 3)
        for key, model in models:
            reg.register(key, model)
        assert reg.stats.evictions == 1
        evicted_key = models[0][0]
        assert evicted_key not in reg.warm_keys()
        rehydrated = reg.model_for(evicted_key)
        assert reg.stats.rehydrations == 1
        # A pickle round-trip: equal weights, not the same object.
        import numpy as np

        original = models[0][1]
        for got, want in zip(
            rehydrated.model.get_weights(), original.model.get_weights()
        ):
            for name in want:
                np.testing.assert_array_equal(got[name], want[name])

    def test_population_pinned_and_required(self, serving_system):
        reg = ClusterModelRegistry(capacity=1)
        with pytest.raises(ServingError, match="population"):
            reg.population()
        fallback = serving_system.population_model()
        reg.set_population(fallback)
        # Pool churn never touches the pinned fallback.
        for key, model in _models(serving_system, 1):
            reg.register(key, model)
        assert reg.population() is fallback

    def test_registered_covers_pool_and_sources(self, serving_system, tmp_path):
        reg = ClusterModelRegistry(cache_dir=tmp_path, capacity=1)
        models = _models(serving_system, 2)
        for key, model in models:
            reg.register(key, model)
        assert reg.registered(models[0][0])  # evicted but cached
        assert reg.registered(models[1][0])  # warm
        assert not reg.registered(("cluster", 42))


class TestFileBackedCheckpoints:
    def test_checkpoint_loads_saved_backend_by_default(
        self, serving_system, tmp_path
    ):
        trained = serving_system.cluster_models[0]
        path = tmp_path / "c0.npz"
        save_model(trained.model, path)
        reg = ClusterModelRegistry(capacity=2)
        reg.register_checkpoint(("cluster", 0), path, trained.normalizer)
        got = reg.model_for(("cluster", 0))
        assert isinstance(got, TrainedModel)
        assert got.model.backend.name == trained.model.backend.name
        assert got.normalizer is trained.normalizer
