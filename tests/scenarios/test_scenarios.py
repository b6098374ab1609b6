"""Scenario families end to end: WEMAC, dynamics, devices, adapters."""

import numpy as np
import pytest

from repro.core import (
    CLEARConfig,
    FineTuneConfig,
    ModelConfig,
    TrainingConfig,
    evaluate_general_model,
)
from repro.scenarios import (
    MIXED_WEARABLES,
    PopulationDynamics,
    available_scenarios,
    base_corpus,
    circumplex_scenario,
    get_scenario,
    population_records,
    scenario_fingerprint,
    stress_scenario,
    wemac_scenario,
)


class TestWEMACScenario:
    @pytest.fixture(scope="class")
    def tiny(self):
        return wemac_scenario(scale="tiny", seed=0, chunk_size=3)

    def test_streamed_equals_materialized(self, tiny):
        streamed = scenario_fingerprint(tiny.iter_subjects(chunk_size=3))
        materialized = scenario_fingerprint(tiny.materialize().subjects)
        assert streamed == materialized

    def test_chunk_size_never_changes_content(self, tiny):
        one = scenario_fingerprint(tiny.iter_subjects(chunk_size=1))
        five = scenario_fingerprint(tiny.iter_subjects(chunk_size=5))
        assert one == five

    def test_consumer_corpus_is_the_scenario_stream(self, tiny, tiny_dataset):
        # Experiments, CLI, benches, examples and the test fixtures all
        # build the WEMAC corpus as WEMACScenario(config).materialize().
        from repro.experiments.runner import ExperimentScale, _generate

        streamed = scenario_fingerprint(tiny.iter_subjects(chunk_size=5))
        assert scenario_fingerprint(tiny_dataset.subjects) == streamed
        experiments = _generate(ExperimentScale.tiny(seed=0))
        assert scenario_fingerprint(experiments.subjects) == streamed

    def test_random_access_matches_stream(self, tiny):
        streamed = list(tiny.iter_subjects())[5]
        direct = tiny.subject(5)
        assert direct.subject_id == streamed.subject_id
        assert direct.archetype_id == streamed.archetype_id
        for a, b in zip(direct.maps, streamed.maps):
            np.testing.assert_array_equal(a.values, b.values)

    def test_maps_have_wemac_shape(self, tiny):
        subject = tiny.subject(0)
        assert all(m.values.shape[0] == 123 for m in subject.maps)
        assert set(int(x) for x in subject.labels) <= {0, 1}


class TestPopulationDynamics:
    def test_churn_marks_generations(self):
        churned = circumplex_scenario(
            num_subjects=24,
            seed=0,
            maps_per_subject=2,
            dynamics=PopulationDynamics(churn_rate=0.5),
        ).materialize()
        generations = [s.generation for s in churned.subjects]
        assert set(generations) == {0, 1}
        assert churned.summary()["churned"] == sum(generations)

    def test_zero_churn_consumes_no_draw(self):
        # churn_rate=0 must not perturb the subject stream at all, so a
        # stationary scenario is byte-identical to one built before the
        # dynamics feature existed.
        stationary = circumplex_scenario(
            num_subjects=6, seed=0, maps_per_subject=2
        )
        explicit = circumplex_scenario(
            num_subjects=6,
            seed=0,
            maps_per_subject=2,
            dynamics=PopulationDynamics(churn_rate=0.0),
        )
        assert scenario_fingerprint(
            stationary.iter_subjects()
        ) == scenario_fingerprint(explicit.iter_subjects())

    def test_drift_changes_late_subjects_only(self):
        base = circumplex_scenario(num_subjects=8, seed=0, maps_per_subject=2)
        drifted = circumplex_scenario(
            num_subjects=8,
            seed=0,
            maps_per_subject=2,
            dynamics=PopulationDynamics(archetype_drift=0.8),
        )
        first_base = base.subject(0)
        first_drift = drifted.subject(0)
        for a, b in zip(first_base.maps, first_drift.maps):
            np.testing.assert_array_equal(a.values, b.values)
        last_base = base.subject(7)
        last_drift = drifted.subject(7)
        assert not np.array_equal(
            last_base.maps[0].values, last_drift.maps[0].values
        )

    def test_wemac_supports_dynamics_too(self):
        scenario = wemac_scenario(
            scale="tiny",
            seed=0,
            dynamics=PopulationDynamics(churn_rate=0.4, archetype_drift=0.3),
        )
        population = scenario.materialize()
        assert population.num_subjects == scenario.num_subjects
        assert any(s.generation for s in population.subjects)


class TestDeviceHeterogeneity:
    @pytest.fixture(scope="class")
    def fleet(self):
        return stress_scenario(
            num_subjects=18, seed=0, maps_per_subject=2
        ).materialize()

    def test_mixed_fleet_assigns_all_profiles(self, fleet):
        names = {s.device.name for s in fleet.subjects}
        assert names == {d.name for d in MIXED_WEARABLES}

    def test_missing_modalities_are_imputed_not_nan(self, fleet):
        gsr_less = [
            s for s in fleet.subjects if s.device.name == "budget_band"
        ]
        assert gsr_less, "expected budget_band subjects in the fleet"
        for subject in gsr_less:
            assert subject.imputed_features > 0
            for fmap in subject.maps:
                assert np.isfinite(fmap.values).all()

    def test_reference_subjects_impute_nothing(self, fleet):
        reference = [
            s for s in fleet.subjects if s.device.name == "chest_reference"
        ]
        assert reference
        assert all(s.imputed_features == 0 for s in reference)


class TestRegistry:
    def test_names_are_stable(self):
        assert available_scenarios() == ["circumplex", "stress", "wemac"]

    @pytest.mark.parametrize("name", ["circumplex", "stress", "wemac"])
    def test_tiny_scale_builds_and_streams(self, name):
        scenario = get_scenario(name, scale="tiny", seed=0)
        first = next(scenario.iter_subjects())
        assert first.subject_id == 0
        assert first.maps[0].values.shape[0] == 123
        # A num_subjects override replaces the scale's subject count.
        sized = get_scenario(name, scale="tiny", seed=0, num_subjects=5)
        assert sized.num_subjects == 5

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("does-not-exist")

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError, match="unknown scale"):
            get_scenario("wemac", scale="galactic")

    def test_wemac_bench_scale_is_capped(self):
        scenario = get_scenario("wemac", scale="bench", seed=0)
        assert scenario.num_subjects <= 48


class TestAdapters:
    def test_scenario_materializes_through_adapter(self):
        scenario = circumplex_scenario(
            num_subjects=5, seed=0, maps_per_subject=2
        )
        records = population_records(scenario)
        assert records.num_subjects == 5
        assert records.subjects[0].maps

    def test_record_carriers_pass_through(self):
        scenario = circumplex_scenario(
            num_subjects=4, seed=0, maps_per_subject=2
        )
        population = scenario.materialize()
        assert population_records(population) is population

    def test_sequence_is_wrapped(self):
        subjects = circumplex_scenario(
            num_subjects=4, seed=0, maps_per_subject=2
        ).materialize().subjects
        wrapped = population_records(subjects)
        assert wrapped.num_subjects == 4

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            population_records([])

    def test_base_corpus_stops_early(self):
        scenario = circumplex_scenario(
            num_subjects=50, seed=0, maps_per_subject=2, chunk_size=4
        )
        corpus = base_corpus(scenario, max_subjects=3)
        assert sorted(corpus) == [0, 1, 2]
        assert all(len(maps) == 2 for maps in corpus.values())


class TestValidationIntegration:
    def test_table1_driver_accepts_a_scenario(self):
        # The Table-I drivers consume a materialized population; the
        # population interface must let any scenario flow in unchanged.
        config = CLEARConfig(
            num_clusters=2,
            subclusters_per_cluster=2,
            gc_refinements=2,
            model=ModelConfig(conv_filters=(4, 8), lstm_units=8, dropout=0.0),
            training=TrainingConfig(
                epochs=4, batch_size=8, early_stopping_patience=2
            ),
            fine_tuning=FineTuneConfig(epochs=2),
            seed=0,
        )
        scenario = stress_scenario(
            num_subjects=6, seed=0, maps_per_subject=4
        )
        summary = evaluate_general_model(
            scenario, config=config, group_size=3, max_folds=1
        )
        assert summary.num_folds == 1
        assert 0.0 <= summary.accuracy_mean <= 100.0
