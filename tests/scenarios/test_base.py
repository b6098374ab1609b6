"""Scenario foundation: per-subject purity, plans, devices, fingerprints."""

import numpy as np
import pytest

from repro.datasets.wemac import WEMACConfig
from repro.scenarios import (
    REFERENCE_DEVICE,
    DeviceProfile,
    LabelSpace,
    PopulationDynamics,
    archetype_counts,
    archetype_for_slot,
    circumplex_scenario,
    scenario_fingerprint,
    subject_rng,
)
from repro.scenarios.base import drift_alpha, pick_device
from repro.scenarios.devices import mask_missing_modalities


class TestArchetypePlan:
    @pytest.mark.parametrize("num_subjects", [4, 8, 16, 47])
    def test_slot_assignment_matches_corpus_plan(self, num_subjects):
        # Archetype a owns one contiguous run of slots, counts[a] long,
        # in archetype order: the O(A) lookup is the whole plan.
        config = WEMACConfig(num_subjects=num_subjects)
        slots = [
            archetype_for_slot(
                config.archetype_weights, num_subjects, subject_id
            )
            for subject_id in range(num_subjects)
        ]
        counts = archetype_counts(config.archetype_weights, num_subjects)
        assert slots == sorted(slots)
        assert [slots.count(a) for a in range(len(counts))] == list(counts)

    def test_counts_cover_population_exactly(self):
        counts = archetype_counts((0.3, 0.25, 0.25, 0.2), 47)
        assert counts.sum() == 47
        assert np.all(counts >= 1)

    def test_every_archetype_gets_a_slot(self):
        counts = archetype_counts((0.97, 0.01, 0.01, 0.01), 4)
        assert list(counts) == [1, 1, 1, 1]

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(ValueError, match="outside population"):
            archetype_for_slot((1.0, 1.0), 4, 4)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            archetype_counts((1.0, 0.0), 4)


class TestSubjectRng:
    def test_same_slot_same_stream(self):
        a = subject_rng(7, 3).standard_normal(5)
        b = subject_rng(7, 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_slots_distinct_streams(self):
        a = subject_rng(7, 3).standard_normal(5)
        b = subject_rng(7, 4).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_generation_reseeds(self):
        a = subject_rng(7, 3, generation=0).standard_normal(5)
        b = subject_rng(7, 3, generation=1).standard_normal(5)
        assert not np.array_equal(a, b)


class TestDynamics:
    def test_stationary_alpha_zero(self):
        assert drift_alpha(PopulationDynamics(), 100, 50) == 0.0

    def test_drift_grows_across_population(self):
        dynamics = PopulationDynamics(archetype_drift=0.5)
        alphas = [drift_alpha(dynamics, 10, i) for i in range(10)]
        assert alphas[0] == 0.0
        assert alphas[-1] == pytest.approx(0.5)
        assert alphas == sorted(alphas)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            PopulationDynamics(archetype_drift=1.5)
        with pytest.raises(ValueError):
            PopulationDynamics(churn_rate=-0.1)


class TestDevices:
    def test_single_device_consumes_no_randomness(self):
        rng = subject_rng(0, 0)
        before = rng.bit_generator.state["state"]["state"]
        device = pick_device((REFERENCE_DEVICE,), rng)
        after = rng.bit_generator.state["state"]["state"]
        assert device is REFERENCE_DEVICE
        assert before == after

    def test_weighted_draw_deterministic(self):
        fleet = (
            DeviceProfile(name="a", weight=1.0),
            DeviceProfile(name="b", weight=3.0),
        )
        first = [
            pick_device(fleet, subject_rng(0, i)).name for i in range(20)
        ]
        second = [
            pick_device(fleet, subject_rng(0, i)).name for i in range(20)
        ]
        assert first == second
        assert set(first) == {"a", "b"}

    def test_mask_nans_dead_modalities(self):
        values = np.ones((123, 4))
        device = DeviceProfile(name="no_gsr", missing_modalities=("gsr",))
        masked = mask_missing_modalities(values, device)
        assert np.isnan(masked[84:118]).all()
        assert np.isfinite(masked[:84]).all()
        assert np.isfinite(masked[118:]).all()

    def test_unknown_modality_rejected(self):
        with pytest.raises(ValueError):
            DeviceProfile(name="bad", missing_modalities=("eeg",))


class TestFingerprint:
    def test_sensitive_to_seed(self):
        a = circumplex_scenario(num_subjects=4, seed=0, maps_per_subject=2)
        b = circumplex_scenario(num_subjects=4, seed=1, maps_per_subject=2)
        assert scenario_fingerprint(
            a.iter_subjects()
        ) != scenario_fingerprint(b.iter_subjects())

    def test_stable_across_processesless_reruns(self):
        scenario = circumplex_scenario(
            num_subjects=4, seed=0, maps_per_subject=2
        )
        assert scenario_fingerprint(
            scenario.iter_subjects()
        ) == scenario_fingerprint(scenario.iter_subjects())


class TestMaterializedPopulation:
    @pytest.fixture(scope="class")
    def population(self):
        return circumplex_scenario(
            num_subjects=6, seed=0, maps_per_subject=4
        ).materialize()

    def test_record_surface(self, population):
        assert population.num_subjects == 6
        assert population.subject_ids == list(range(6))
        assert len(population.all_maps()) == 6 * 4
        assert set(population.maps_by_subject()) == set(range(6))

    def test_archetype_ground_truth(self, population):
        assignment = population.archetype_assignment()
        assert set(assignment) == set(range(6))
        assert all(0 <= a < 4 for a in assignment.values())

    def test_summary_counts(self, population):
        summary = population.summary()
        assert summary["num_subjects"] == 6.0
        assert summary["num_maps"] == 24.0
        assert summary["num_features"] == 123.0


class TestDescribe:
    def test_static_structure_only(self):
        scenario = circumplex_scenario(num_subjects=6, seed=3)
        description = scenario.describe()
        assert description["name"] == "circumplex"
        assert description["num_subjects"] == 6
        assert description["classes"][0] == "high_valence_high_arousal"
        assert description["devices"] == ["reference"]

    def test_label_space_validation(self):
        with pytest.raises(ValueError):
            LabelSpace(name="x", classes=("only_one",))
