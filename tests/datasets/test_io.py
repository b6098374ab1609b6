"""Tests for corpus save/load."""

import json

import numpy as np
import pytest

from repro.datasets.io import load_dataset, save_dataset
from repro.scenarios import (
    PopulationDynamics,
    scenario_fingerprint,
    stress_scenario,
)


class TestDatasetRoundtrip:
    @pytest.fixture()
    def roundtripped(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path / "corpus.npz")
        return load_dataset(tmp_path / "corpus.npz")

    def test_population_fingerprint_preserved(self, tiny_dataset, roundtripped):
        assert roundtripped.name == tiny_dataset.name
        assert scenario_fingerprint(roundtripped.subjects) == (
            scenario_fingerprint(tiny_dataset.subjects)
        )

    def test_subject_count_and_ids(self, tiny_dataset, roundtripped):
        assert roundtripped.subject_ids == tiny_dataset.subject_ids

    def test_maps_identical(self, tiny_dataset, roundtripped):
        for orig, loaded in zip(tiny_dataset.subjects, roundtripped.subjects):
            assert len(orig.maps) == len(loaded.maps)
            for m1, m2 in zip(orig.maps, loaded.maps):
                np.testing.assert_array_equal(m1.values, m2.values)
                assert m1.label == m2.label
                assert m1.subject_id == m2.subject_id

    def test_schedule_labels_preserved(self, tiny_dataset, roundtripped):
        for orig, loaded in zip(tiny_dataset.subjects, roundtripped.subjects):
            np.testing.assert_array_equal(orig.labels, loaded.labels)

    def test_suffix_added(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "noext")
        assert path.suffix == ".npz"

    def test_summary_matches(self, tiny_dataset, roundtripped):
        assert roundtripped.summary() == tiny_dataset.summary()

    def test_devices_and_generations_preserved(self, tmp_path):
        # Heterogeneous fleets keep each subject's device and churn
        # generation, so a reloaded population fingerprints the same.
        population = stress_scenario(
            num_subjects=12,
            seed=0,
            maps_per_subject=2,
            dynamics=PopulationDynamics(churn_rate=0.5),
        ).materialize()
        loaded = load_dataset(save_dataset(population, tmp_path / "fleet"))
        assert [(s.device, s.generation) for s in loaded.subjects] == [
            (s.device, s.generation) for s in population.subjects
        ]
        assert scenario_fingerprint(loaded.subjects) == (
            scenario_fingerprint(population.subjects)
        )

    def test_version_1_file_rejected(self, tmp_path):
        meta = json.dumps({"format_version": 1, "subjects": []}).encode()
        path = tmp_path / "old.npz"
        np.savez_compressed(path, __meta__=np.frombuffer(meta, dtype=np.uint8))
        with pytest.raises(ValueError, match="unsupported dataset format: 1"):
            load_dataset(path)
