"""Tests for CLEAR system persistence (cloud -> edge shipping)."""

import numpy as np
import pytest

from repro.core import CLEAR, CLEARConfig, FineTuneConfig, ModelConfig, TrainingConfig
from repro.core.persistence import load_system, save_system

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
def system(tiny_maps_by_subject):
    return CLEAR(FAST_CFG).fit(tiny_maps_by_subject)


@pytest.fixture()
def roundtripped(system, tmp_path):
    save_system(system, tmp_path / "deploy")
    return load_system(tmp_path / "deploy")


class TestSaveLoad:
    def test_directory_layout(self, system, tmp_path):
        out = save_system(system, tmp_path / "deploy")
        assert (out / "manifest.json").exists()
        for cluster in range(4):
            assert (out / f"cluster_{cluster}.npz").exists()

    def test_config_roundtrip(self, roundtripped):
        assert roundtripped.config == FAST_CFG

    def test_clustering_state_roundtrip(self, system, roundtripped):
        assert roundtripped.gc.assignments == system.gc.assignments
        np.testing.assert_allclose(
            roundtripped.gc.centroids, system.gc.centroids, atol=1e-12
        )
        for cluster in range(4):
            np.testing.assert_allclose(
                roundtripped.subclusters[cluster].centroids,
                system.subclusters[cluster].centroids,
                atol=1e-12,
            )

    def test_assignment_identical_after_roundtrip(
        self, system, roundtripped, tiny_dataset
    ):
        for record in tiny_dataset.subjects:
            original = system.assign_new_user(record.maps[:1])
            restored = roundtripped.assign_new_user(record.maps[:1])
            assert original.cluster == restored.cluster
            for c in original.scores:
                assert original.scores[c] == pytest.approx(restored.scores[c])

    def test_predictions_identical_after_roundtrip(
        self, system, roundtripped, tiny_dataset
    ):
        record = tiny_dataset.subjects[0]
        for cluster in range(4):
            np.testing.assert_array_equal(
                system.predict(record.maps, cluster=cluster),
                roundtripped.predict(record.maps, cluster=cluster),
            )

    def test_loaded_system_can_personalize(self, roundtripped, tiny_dataset):
        record = tiny_dataset.subjects[1]
        tuned = roundtripped.personalize(record.maps[:2], cluster=0)
        metrics = tuned.evaluate(record.maps[2:])
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_system(tmp_path / "nowhere")

    def test_bad_version_raises(self, system, tmp_path):
        import json

        out = save_system(system, tmp_path / "deploy")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["format_version"] = 999
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported"):
            load_system(out)

    def test_manifest_recording_a_backend_loads(self, system, tiny_dataset, tmp_path):
        import json

        # Older manifests carry the model's compute backend and a
        # training validation fraction in the config; loading ignores
        # both.
        out = save_system(system, tmp_path / "deploy")
        manifest = json.loads((out / "manifest.json").read_text())
        assert "backend" not in manifest["config"]["model"]
        assert "validation_fraction" not in manifest["config"]["training"]
        manifest["config"]["model"]["backend"] = "reference"
        manifest["config"]["training"]["validation_fraction"] = 0.2
        (out / "manifest.json").write_text(json.dumps(manifest))
        restored = load_system(out)
        assert restored.config == FAST_CFG
        record = tiny_dataset.subjects[0]
        np.testing.assert_array_equal(
            system.predict(record.maps, cluster=0),
            restored.predict(record.maps, cluster=0),
        )
