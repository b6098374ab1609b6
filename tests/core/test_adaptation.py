"""Tests for drift detection and adaptive re-assignment."""

import numpy as np
import pytest

from repro.core import CLEAR, CLEARConfig, FineTuneConfig, ModelConfig, TrainingConfig
from repro.core.adaptation import DriftDetector

FAST_CFG = CLEARConfig(
    num_clusters=4,
    subclusters_per_cluster=2,
    gc_refinements=2,
    model=ModelConfig(conv_filters=(4, 8), lstm_units=8, dropout=0.0),
    training=TrainingConfig(epochs=6, batch_size=8, early_stopping_patience=2),
    fine_tuning=FineTuneConfig(epochs=3),
    seed=0,
)


@pytest.fixture(scope="module")
def system(small_maps_by_subject):
    return CLEAR(FAST_CFG).fit(small_maps_by_subject)


def maps_of_cluster(system, maps_by, cluster, limit=10):
    member_ids = system.gc.members(cluster)
    maps = [m for sid in member_ids for m in maps_by[sid]]
    return maps[:limit]


class TestDriftDetector:
    def test_no_observation_until_window_full(self, system, small_maps_by_subject):
        cluster = 0
        maps = maps_of_cluster(system, small_maps_by_subject, cluster)
        detector = DriftDetector(system.assigner, cluster, window_maps=4)
        assert detector.update(maps[:2]) is None
        assert detector.update(maps[2:4]) is not None

    def test_stationary_user_no_drift(self, system, small_maps_by_subject):
        """A user fed their own cluster's data should not drift."""
        cluster = int(np.argmax(system.gc.cluster_sizes()))
        maps = maps_of_cluster(system, small_maps_by_subject, cluster, limit=12)
        detector = DriftDetector(system.assigner, cluster, window_maps=4, patience=2)
        for i in range(0, len(maps), 2):
            detector.update(maps[i : i + 2])
        assert not detector.reassignment_recommended

    def test_drifted_user_detected(self, system, small_maps_by_subject):
        """Feeding another cluster's data must trigger re-assignment."""
        sizes = system.gc.cluster_sizes()
        ordered = np.argsort(sizes)[::-1]
        home, away = int(ordered[0]), int(ordered[1])
        away_maps = maps_of_cluster(system, small_maps_by_subject, away, limit=12)
        detector = DriftDetector(system.assigner, home, window_maps=4, patience=2)
        for i in range(0, len(away_maps), 2):
            detector.update(away_maps[i : i + 2])
        assert detector.reassignment_recommended
        assert detector.recommended_cluster() == away

    def test_patience_suppresses_transients(self, system, small_maps_by_subject):
        cluster = int(np.argmax(system.gc.cluster_sizes()))
        other = (cluster + 1) % 4
        own = maps_of_cluster(system, small_maps_by_subject, cluster, limit=8)
        foreign = maps_of_cluster(system, small_maps_by_subject, other, limit=4)
        detector = DriftDetector(
            system.assigner, cluster, window_maps=4, patience=3
        )
        # Burst of foreign data shorter than patience, then back home.
        detector.update(own[:4])
        detector.update(foreign[:4])
        detector.update(own[4:8])
        assert not detector.reassignment_recommended

    def test_reset_with_new_cluster(self, system):
        detector = DriftDetector(system.assigner, 0, window_maps=2)
        detector.reset(new_cluster=2)
        assert detector.assigned_cluster == 2
        with pytest.raises(ValueError, match="out of range"):
            detector.reset(new_cluster=99)

    def test_validation(self, system):
        with pytest.raises(ValueError, match="window_maps"):
            DriftDetector(system.assigner, 0, window_maps=0)
        with pytest.raises(ValueError, match="patience"):
            DriftDetector(system.assigner, 0, patience=0)
        with pytest.raises(ValueError, match="out of range"):
            DriftDetector(system.assigner, 99)
