"""Tests for the degradation policy, controller, and fallback model."""

import numpy as np
import pytest

from repro.resilience.degradation import (
    ABSTAINED,
    DEGRADED,
    FALLBACK,
    HEALTHY,
    DegradationController,
    DegradationPolicy,
    HealthStatus,
    average_normalizers,
    channel_feature_slices,
    population_average_model,
    safe_probabilities,
)
from repro.signals.feature_map import FeatureNormalizer
from repro.signals.features import ALL_FEATURE_NAMES


class TestPolicy:
    def test_defaults_valid(self):
        policy = DegradationPolicy()
        assert policy.impute == "mean" and policy.min_assignment_margin == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"impute": "extrapolate"},
            {"min_quality": 1.5},
            {"max_gated_fraction": -0.1},
            {"gated_window_memory": 0},
            {"min_assignment_margin": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DegradationPolicy(**kwargs)


class TestHealthStatus:
    def test_ok_only_when_healthy(self):
        assert HealthStatus(state=HEALTHY).ok
        for state in (DEGRADED, FALLBACK, ABSTAINED):
            assert not HealthStatus(state=state).ok

    def test_to_dict_round_trips_fields(self):
        status = HealthStatus(
            state=DEGRADED,
            gated_channels=("gsr",),
            imputed_features=34,
            reasons=("low_quality:gsr",),
        )
        payload = status.to_dict()
        assert payload["state"] == DEGRADED
        assert payload["gated_channels"] == ["gsr"]
        assert payload["imputed_features"] == 34
        assert payload["ok"] is False


class TestSafeProbabilities:
    def test_finite_logits_are_softmaxed(self):
        probs, trustworthy = safe_probabilities(np.array([[2.0, 0.0]]))
        assert trustworthy
        assert probs.sum(axis=-1) == pytest.approx(1.0)
        assert probs[0, 0] > probs[0, 1]

    def test_nan_rows_become_uniform(self):
        logits = np.array([[1.0, 0.0], [np.nan, 2.0]])
        probs, trustworthy = safe_probabilities(logits)
        assert not trustworthy
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs[1], [0.5, 0.5])
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0)

    def test_inf_logits_stay_finite(self):
        probs, trustworthy = safe_probabilities(np.array([[np.inf, -np.inf]]))
        assert not trustworthy and np.isfinite(probs).all()


class TestChannelSlices:
    def test_slices_partition_the_feature_vector(self):
        slices = channel_feature_slices()
        n = len(ALL_FEATURE_NAMES)
        covered = sorted(
            i for s in slices.values() for i in range(*s.indices(n))
        )
        assert covered == list(range(n))
        assert set(slices) == {"bvp", "gsr", "skt"}


class TestController:
    def test_running_mean_converges(self):
        ctrl = DegradationController(DegradationPolicy())
        ctrl.observe_clean(np.zeros(4))
        ctrl.observe_clean(np.full(4, 2.0))
        np.testing.assert_allclose(ctrl.running_mean, np.ones(4))

    def test_sanitize_imputes_gated_channel_from_mean(self):
        ctrl = DegradationController(DegradationPolicy(impute="mean"))
        n = len(ALL_FEATURE_NAMES)
        ctrl.observe_clean(np.full(n, 5.0))
        dirty = np.ones(n)
        out, n_imputed = ctrl.sanitize(dirty, gated_channels=("gsr",))
        gsr = channel_feature_slices()["gsr"]
        assert n_imputed == gsr.stop - gsr.start
        np.testing.assert_array_equal(out[gsr], 5.0)
        assert np.isfinite(out).all()

    def test_sanitize_zero_strategy(self):
        ctrl = DegradationController(DegradationPolicy(impute="zero"))
        n = len(ALL_FEATURE_NAMES)
        dirty = np.ones(n)
        dirty[3] = np.nan
        out, n_imputed = ctrl.sanitize(dirty)
        assert n_imputed == 1 and out[3] == 0.0

    def test_sanitize_always_finite_even_without_history(self):
        ctrl = DegradationController(DegradationPolicy(impute="mean"))
        n = len(ALL_FEATURE_NAMES)
        dirty = np.full(n, np.nan)
        out, n_imputed = ctrl.sanitize(dirty, gated_channels=("bvp", "gsr", "skt"))
        assert np.isfinite(out).all() and n_imputed == n

    def test_abstention_threshold(self):
        policy = DegradationPolicy(max_gated_fraction=0.5, gated_window_memory=4)
        ctrl = DegradationController(policy)
        for gated in (False, True, True, True):
            ctrl.record_window(gated)
        assert ctrl.gated_recent_fraction == 0.75
        assert ctrl.should_abstain()

    def test_no_windows_no_abstention(self):
        ctrl = DegradationController(DegradationPolicy())
        assert not ctrl.should_abstain()

    def test_abstain_holds_last_decision(self):
        ctrl = DegradationController(DegradationPolicy())
        ctrl.commit(1, np.array([0.2, 0.8]))
        pred, probs = ctrl.abstain()
        assert pred == 1
        np.testing.assert_array_equal(probs, [0.2, 0.8])

    def test_abstain_without_history_emits_prior(self):
        pred, probs = DegradationController(DegradationPolicy()).abstain()
        assert pred == 0
        np.testing.assert_array_equal(probs, [0.5, 0.5])

    def test_reset_clears_everything(self):
        ctrl = DegradationController(DegradationPolicy())
        ctrl.observe_clean(np.ones(3))
        ctrl.record_window(True)
        ctrl.commit(1, np.array([0.1, 0.9]))
        ctrl.reset()
        assert ctrl.running_mean is None
        assert ctrl.gated_recent_fraction == 0.0
        assert ctrl.last_prediction is None


class TestAverageNormalizers:
    def _fitted(self, mean, std):
        n = FeatureNormalizer()
        n.mean_ = np.full((3, 1), float(mean))
        n.std_ = np.full((3, 1), float(std))
        return n

    def test_statistics_averaged(self):
        out = average_normalizers([self._fitted(0, 1), self._fitted(2, 3)])
        np.testing.assert_allclose(out.mean_, 1.0)
        np.testing.assert_allclose(out.std_, 2.0)

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError, match="fitted"):
            average_normalizers([FeatureNormalizer()])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            average_normalizers([])


class TestPopulationAverageModel:
    def test_weights_are_the_mean_of_cluster_weights(self, clear_system):
        fallback = clear_system.population_model()
        models = [
            clear_system.cluster_models[k]
            for k in sorted(clear_system.cluster_models)
        ]
        first_key = next(iter(models[0].model.get_weights()[0]))
        expected = np.mean(
            [m.model.get_weights()[0][first_key] for m in models], axis=0
        )
        np.testing.assert_allclose(
            fallback.model.get_weights()[0][first_key], expected
        )

    def test_cached_on_the_system(self, clear_system):
        assert clear_system.population_model() is clear_system.population_model()

    def test_source_models_untouched(self, clear_system, tiny_dataset):
        maps = list(tiny_dataset.subjects[0].maps)
        before = clear_system.cluster_models[0].predict_classes(maps)
        clear_system.population_model()
        after = clear_system.cluster_models[0].predict_classes(maps)
        np.testing.assert_array_equal(before, after)

    def test_fallback_predicts_finite(self, clear_system, tiny_dataset):
        maps = list(tiny_dataset.subjects[1].maps)
        preds = clear_system.population_model().predict_classes(maps)
        assert preds.shape == (len(maps),)
        assert set(np.unique(preds)) <= {0, 1}

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            population_average_model({})
