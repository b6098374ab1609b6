"""Tests for global clustering (GC), sub-clusters, and cold-start CA."""

from collections import Counter

import numpy as np
import pytest

from repro.clustering import (
    ColdStartAssigner,
    GlobalClustering,
    build_subclusters,
    subject_matrix,
)


class TestSubjectMatrix:
    def test_shape_and_order(self, tiny_maps_by_subject):
        mat = subject_matrix(tiny_maps_by_subject)
        assert mat.shape == (len(tiny_maps_by_subject), 123)

    def test_signature_is_mean_of_windows(self, tiny_maps_by_subject):
        sid = sorted(tiny_maps_by_subject)[0]
        maps = tiny_maps_by_subject[sid]
        expected = np.concatenate([m.values.T for m in maps]).mean(axis=0)
        mat = subject_matrix(tiny_maps_by_subject)
        np.testing.assert_allclose(mat[0], expected)

    def test_subsampling_changes_signature(self, tiny_maps_by_subject):
        rng = np.random.default_rng(0)
        full = subject_matrix(tiny_maps_by_subject)
        sub = subject_matrix(
            tiny_maps_by_subject, rng=rng, subsample_fraction=0.5
        )
        assert not np.allclose(full, sub)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no subjects"):
            subject_matrix({})


class TestGlobalClustering:
    def test_clusters_recover_archetypes(self, small_dataset, small_maps_by_subject):
        gc = GlobalClustering(k=4, seed=0).fit(small_maps_by_subject)
        truth = small_dataset.archetype_assignment()
        purity = 0
        for c in range(4):
            members = gc.members(c)
            if members:
                purity += Counter(truth[m] for m in members).most_common(1)[0][1]
        assert purity / small_dataset.num_subjects >= 0.75

    def test_all_subjects_assigned(self, small_maps_by_subject):
        gc = GlobalClustering(k=4, seed=0).fit(small_maps_by_subject)
        assert set(gc.assignments) == set(small_maps_by_subject)
        assert sum(gc.cluster_sizes()) == len(small_maps_by_subject)

    def test_no_empty_clusters(self, small_maps_by_subject):
        gc = GlobalClustering(k=4, seed=0).fit(small_maps_by_subject)
        assert all(size > 0 for size in gc.cluster_sizes())

    def test_determinism(self, small_maps_by_subject):
        a = GlobalClustering(k=4, seed=3).fit(small_maps_by_subject)
        b = GlobalClustering(k=4, seed=3).fit(small_maps_by_subject)
        assert a.assignments == b.assignments

    def test_assign_signature_consistent(self, small_maps_by_subject):
        gc = GlobalClustering(k=4, seed=0).fit(small_maps_by_subject)
        mat = subject_matrix(small_maps_by_subject)
        for i, sid in enumerate(sorted(small_maps_by_subject)):
            assert gc.assign_signature(mat[i]) == gc.assignments[sid]

    def test_too_few_subjects_raises(self, tiny_maps_by_subject):
        subset = {k: tiny_maps_by_subject[k] for k in list(tiny_maps_by_subject)[:2]}
        with pytest.raises(ValueError, match="cannot form"):
            GlobalClustering(k=4).fit(subset)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="k must be"):
            GlobalClustering(k=0)
        with pytest.raises(ValueError, match="subsample_fraction"):
            GlobalClustering(k=2, subsample_fraction=0.0)


class TestSubclusters:
    def test_every_cluster_covered(self, small_maps_by_subject):
        gc = GlobalClustering(k=4, seed=0).fit(small_maps_by_subject)
        subs = build_subclusters(gc, small_maps_by_subject, 3)
        assert set(subs) == {0, 1, 2, 3}
        for model in subs.values():
            assert 1 <= model.num_subclusters <= 3
            assert model.centroids.shape[1] == 123

    def test_invalid_count_raises(self, small_maps_by_subject):
        gc = GlobalClustering(k=4, seed=0).fit(small_maps_by_subject)
        with pytest.raises(ValueError, match="subclusters_per_cluster"):
            build_subclusters(gc, small_maps_by_subject, 0)


class TestColdStartAssignment:
    @pytest.fixture()
    def fitted(self, small_maps_by_subject):
        gc = GlobalClustering(k=4, seed=0).fit(small_maps_by_subject)
        subs = build_subclusters(gc, small_maps_by_subject, 3)
        return gc, subs, ColdStartAssigner(gc, subs)

    def test_full_data_assignment_matches_gc(self, fitted, small_maps_by_subject):
        gc, _, assigner = fitted
        correct = sum(
            assigner.assign(maps).cluster == gc.assignments[sid]
            for sid, maps in small_maps_by_subject.items()
        )
        assert correct / len(small_maps_by_subject) >= 0.9

    def test_small_fraction_assignment_mostly_correct(
        self, fitted, small_maps_by_subject
    ):
        """The cold-start case: only ~10 % of the user's data.

        Every one of a user's maps is probed as a one-map CA input, so
        the rate rests on all 128 probes, not on 16 first maps.
        """
        gc, _, assigner = fitted
        probes = [
            assigner.assign([fmap]).cluster == gc.assignments[sid]
            for sid, maps in small_maps_by_subject.items()
            for fmap in maps
        ]
        assert sum(probes) / len(probes) >= 0.7

    def test_scores_cover_all_clusters(self, fitted, small_maps_by_subject):
        _, _, assigner = fitted
        maps = next(iter(small_maps_by_subject.values()))
        result = assigner.assign(maps)
        assert set(result.scores) == {0, 1, 2, 3}
        assert result.cluster == min(result.scores, key=result.scores.get)

    def test_margin_non_negative(self, fitted, small_maps_by_subject):
        _, _, assigner = fitted
        maps = next(iter(small_maps_by_subject.values()))
        assert assigner.assign(maps).margin() >= 0.0

    def test_empty_maps_raise(self, fitted):
        _, _, assigner = fitted
        with pytest.raises(ValueError, match="at least one"):
            assigner.assign([])

    def test_weight_validation(self, fitted):
        gc, subs, _ = fitted
        with pytest.raises(ValueError, match="non-negative"):
            ColdStartAssigner(gc, subs, main_weight=-1.0)
        with pytest.raises(ValueError, match="at least one weight"):
            ColdStartAssigner(gc, subs, main_weight=0.0, sub_weight=0.0)

    def test_mismatched_subclusters_raise(self, fitted, small_maps_by_subject):
        gc, subs, _ = fitted
        partial = {0: subs[0]}
        with pytest.raises(ValueError, match="cover"):
            ColdStartAssigner(gc, partial)
