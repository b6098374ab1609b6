"""Tests for the end-to-end CLEAR pipeline (cloud fit + edge operations)."""

import pytest

from repro.core import CLEAR, CLEARConfig, FineTuneConfig, ModelConfig, TrainingConfig

FAST_CFG = CLEARConfig(
    num_clusters=4,
    subclusters_per_cluster=2,
    gc_refinements=3,
    model=ModelConfig(conv_filters=(4, 8), lstm_units=8, dropout=0.0),
    training=TrainingConfig(epochs=8, batch_size=8, early_stopping_patience=3),
    fine_tuning=FineTuneConfig(epochs=4),
    seed=0,
)


@pytest.fixture(scope="module")
def fitted_system(tiny_maps_by_subject):
    return CLEAR(FAST_CFG).fit(tiny_maps_by_subject)


class TestCloudFit:
    def test_one_model_per_cluster(self, fitted_system):
        assert set(fitted_system.cluster_models) == {0, 1, 2, 3}

    def test_all_subjects_clustered(self, fitted_system, tiny_maps_by_subject):
        assert sum(fitted_system.cluster_sizes()) == len(tiny_maps_by_subject)

    def test_models_fit_their_own_cluster(self, fitted_system, tiny_maps_by_subject):
        """Each cluster model should do well on its own training users."""
        for cluster, model in fitted_system.cluster_models.items():
            member_ids = fitted_system.gc.members(cluster)
            maps = [m for sid in member_ids for m in tiny_maps_by_subject[sid]]
            assert model.evaluate(maps)["accuracy"] > 0.7


class TestEdgeOperations:
    def test_assignment_returns_valid_cluster(self, fitted_system, tiny_dataset):
        record = tiny_dataset.subjects[0]
        result = fitted_system.assign_new_user(record.maps[:1])
        assert 0 <= result.cluster < 4

    def test_assignment_consistent_with_gc(self, fitted_system, tiny_dataset):
        """With full data, CA should mostly agree with GC membership."""
        agree = sum(
            fitted_system.assign_new_user(s.maps).cluster
            == fitted_system.gc.assignments[s.subject_id]
            for s in tiny_dataset.subjects
        )
        assert agree >= 6  # of 8

    def test_predict_auto_assigns(self, fitted_system, tiny_dataset):
        record = tiny_dataset.subjects[1]
        preds = fitted_system.predict(record.maps)
        assert preds.shape == (len(record.maps),)

    def test_predict_explicit_cluster(self, fitted_system, tiny_dataset):
        record = tiny_dataset.subjects[1]
        preds = fitted_system.predict(record.maps, cluster=0)
        assert preds.shape == (len(record.maps),)

    def test_model_for_unknown_cluster_raises(self, fitted_system):
        with pytest.raises(KeyError, match="no model"):
            fitted_system.model_for(99)

    def test_personalize_returns_new_model(self, fitted_system, tiny_dataset):
        record = tiny_dataset.subjects[2]
        cluster = fitted_system.assign_new_user(record.maps[:1]).cluster
        tuned = fitted_system.personalize(record.maps[:2], cluster=cluster)
        assert tuned is not fitted_system.model_for(cluster)
        metrics = tuned.evaluate(record.maps[2:])
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_personalize_auto_assigns(self, fitted_system, tiny_dataset):
        record = tiny_dataset.subjects[3]
        tuned = fitted_system.personalize(record.maps[:2])
        assert tuned.evaluate(record.maps[2:])["accuracy"] >= 0.0


class TestFitValidation:
    def test_too_few_subjects_raises(self, tiny_maps_by_subject):
        subset = dict(list(tiny_maps_by_subject.items())[:3])
        with pytest.raises(ValueError, match="cannot form"):
            CLEAR(FAST_CFG).fit(subset)
