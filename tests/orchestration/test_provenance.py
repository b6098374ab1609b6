"""Artifact digesting and provenance record round-trips."""

import pickle

import numpy as np
import pytest

from repro import nn
from repro.clustering.scaling import StandardScaler
from repro.orchestration import (
    Artifact,
    Provenance,
    artifact_digest,
)
from repro.signals.feature_map import FeatureMap, FeatureNormalizer


class WithHook:
    """Declares stable content; carries a volatile field besides it."""

    def __init__(self, stable, volatile):
        self.stable = stable
        self.volatile = volatile

    def __repro_content__(self):
        return ("WithHook", self.stable)


class TestArtifactDigest:
    def test_deterministic_for_plain_values(self):
        assert artifact_digest([1, 2.5, "x"]) == artifact_digest([1, 2.5, "x"])
        assert artifact_digest(1) != artifact_digest(2)

    def test_ndarray_content_addressed(self):
        a = np.arange(6, dtype=np.float64)
        assert artifact_digest(a) == artifact_digest(a.copy())
        assert artifact_digest(a) != artifact_digest(a + 1)

    def test_hook_excludes_volatile_fields(self):
        fast = WithHook("same", volatile=0.001)
        slow = WithHook("same", volatile=99.9)
        assert artifact_digest(fast) == artifact_digest(slow)
        assert artifact_digest(fast) != artifact_digest(WithHook("other", 0.001))

    def test_undeclared_type_raises_type_error(self):
        with pytest.raises(TypeError, match="WithHookless"):
            artifact_digest(WithHookless())
        with pytest.raises(TypeError, match="WithHookless"):
            artifact_digest({"nested": [WithHookless()]})

    def test_unpicklable_raises_type_error(self):
        with pytest.raises(TypeError, match="function"):
            artifact_digest(lambda: 0)

    def test_scaler_digests_are_their_statistics(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        a, b = StandardScaler().fit(x), StandardScaler().fit(x.copy())
        assert artifact_digest(a) == artifact_digest(b)
        assert artifact_digest(a) != artifact_digest(StandardScaler().fit(x + 1))
        assert artifact_digest(a) != artifact_digest(StandardScaler(eps=1e-6).fit(x))
        maps = [FeatureMap(x.T, label=0, subject_id=0)]
        norm = FeatureNormalizer().fit(maps)
        assert artifact_digest(norm) == artifact_digest(FeatureNormalizer().fit(maps))
        assert artifact_digest(norm) != artifact_digest(a)

    def test_model_digest_ignores_predicts_and_pickling(self):
        from repro.core import build_cnn_lstm

        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 1, 16, 4))
        model = build_cnn_lstm((1, 16, 4), seed=0).compile(
            nn.SoftmaxCrossEntropy(), nn.Adam(1e-3)
        )
        model.fit(x, rng.integers(0, 2, 8), epochs=1, batch_size=4)
        trained = artifact_digest(model)
        model.predict(x[:3])
        assert artifact_digest(model) == trained
        assert artifact_digest(pickle.loads(pickle.dumps(model))) == trained
        assert artifact_digest([model, (model,)]) == artifact_digest(
            [model, (model,)]
        )
        untrained = build_cnn_lstm((1, 16, 4), seed=0)
        assert artifact_digest(untrained) != trained


class WithHookless:
    """No __repro_content__ and not plain data: not digestible."""

    x = 3


class TestProvenanceRoundTrip:
    def test_as_dict_from_dict(self):
        prov = Provenance(
            stage="train",
            digest="abc",
            config_digest="cfg",
            seed=7,
            seed_path=(2,),
            inputs=(("corpus", "d1"),),
            cache_hits=4,
            cache_misses=1,
            wall_time_s=1.5,
            executor="parallel",
            workers=4,
            units=9,
        )
        assert Provenance.from_dict(prov.as_dict()) == prov

    def test_as_dict_is_json_shaped(self):
        import json

        prov = Provenance(stage="s", digest="d", seed_path=(1, 2))
        text = json.dumps(prov.as_dict())
        assert Provenance.from_dict(json.loads(text)) == prov

    def test_defaults_survive_sparse_dict(self):
        prov = Provenance.from_dict({"stage": "s", "digest": "d"})
        assert prov.executor == "serial"
        assert prov.inputs == ()


class TestArtifact:
    def test_digest_is_provenance_digest(self):
        art = Artifact("a", 1, Provenance(stage="s", digest="xyz"))
        assert art.digest == "xyz"

    def test_repro_content_is_name_plus_digest(self):
        art = Artifact("a", object(), Provenance(stage="s", digest="xyz"))
        assert art.__repro_content__() == ("a", "xyz")
