"""Tests for cloud-edge deployment: quantized eval, on-device FT, costs."""

import numpy as np
import pytest

from repro.core import FineTuneConfig, ModelConfig, TrainingConfig, train_on_maps
from repro.edge import CORAL_TPU, GPU_BASELINE, PI_NCS2, EdgeDeployment
from repro.signals import FeatureMap


def make_maps(rng, n=24, f=16, w=4, shift=2.0, subject=0):
    maps = []
    for i in range(n):
        label = i % 2
        values = rng.normal(size=(f, w))
        if label == 1:
            values[: f // 2] += shift
        maps.append(FeatureMap(values, label=label, subject_id=subject))
    return maps


FAST = TrainingConfig(epochs=12, batch_size=8, early_stopping_patience=4)
SMALL_MODEL = ModelConfig(conv_filters=(4, 8), lstm_units=8, dropout=0.0)


@pytest.fixture(scope="module")
def trained_and_maps():
    rng = np.random.default_rng(41)
    train = make_maps(rng, n=40)
    test = make_maps(rng, n=16, subject=1)
    trained = train_on_maps(train, SMALL_MODEL, FAST, seed=0)
    return trained, train, test


class TestDeployment:
    def test_gpu_matches_float_eval(self, trained_and_maps):
        trained, train, test = trained_and_maps
        dep = EdgeDeployment(trained, GPU_BASELINE)
        assert dep.evaluate(test) == trained.evaluate(test)

    def test_int8_requires_calibration_maps(self, trained_and_maps):
        trained, _, _ = trained_and_maps
        with pytest.raises(ValueError, match="calibration"):
            EdgeDeployment(trained, CORAL_TPU)

    def test_accuracy_ordering_across_platforms(self, trained_and_maps):
        """GPU >= NCS2 (fp16) and both >= a sane floor for TPU (int8)."""
        trained, train, test = trained_and_maps
        gpu = EdgeDeployment(trained, GPU_BASELINE).evaluate(test)["accuracy"]
        ncs2 = EdgeDeployment(trained, PI_NCS2).evaluate(test)["accuracy"]
        tpu = EdgeDeployment(trained, CORAL_TPU, calibration_maps=train[:8]).evaluate(
            test
        )["accuracy"]
        assert abs(gpu - ncs2) <= 0.15  # fp16 ~ float
        assert tpu <= gpu + 0.05  # int8 never better than float (tolerance)

    def test_predictions_shape(self, trained_and_maps):
        trained, train, test = trained_and_maps
        dep = EdgeDeployment(trained, PI_NCS2)
        assert dep.predict_classes(test).shape == (len(test),)

    def test_evaluate_empty_raises(self, trained_and_maps):
        trained, _, _ = trained_and_maps
        dep = EdgeDeployment(trained, GPU_BASELINE)
        with pytest.raises(ValueError, match="empty"):
            dep.evaluate([])


class TestOnDeviceFineTuning:
    def test_returns_new_deployment(self, trained_and_maps):
        trained, train, test = trained_and_maps
        dep = EdgeDeployment(trained, PI_NCS2)
        rng = np.random.default_rng(5)
        user_maps = make_maps(rng, n=6, subject=9)
        tuned = dep.fine_tune_on_device(user_maps, FineTuneConfig(epochs=3))
        assert tuned is not dep
        assert tuned.device is PI_NCS2

    def test_base_deployment_unchanged(self, trained_and_maps):
        trained, train, test = trained_and_maps
        dep = EdgeDeployment(trained, PI_NCS2)
        before = dep.evaluate(test)
        rng = np.random.default_rng(6)
        dep.fine_tune_on_device(make_maps(rng, n=6, subject=9), FineTuneConfig(epochs=2))
        assert dep.evaluate(test) == before


class TestCostReports:
    def test_report_fields(self, trained_and_maps):
        trained, train, test = trained_and_maps
        dep = EdgeDeployment(trained, CORAL_TPU, calibration_maps=train[:8])
        report = dep.cost_report(test, ft_examples=4, ft_epochs=15)
        assert report.device == "Coral TPU"
        assert report.test_time_s > 0
        assert report.retrain_time_s > report.test_time_s
        assert report.power_idle_w == CORAL_TPU.power_idle_w
        assert report.retrain_energy_j > 0

    def test_report_without_ft(self, trained_and_maps):
        trained, _, test = trained_and_maps
        dep = EdgeDeployment(trained, PI_NCS2)
        report = dep.cost_report(test)
        assert report.retrain_time_s is None
        assert report.retrain_energy_j is None

    def test_tpu_cheaper_energy_than_ncs2(self, trained_and_maps):
        trained, train, test = trained_and_maps
        tpu = EdgeDeployment(trained, CORAL_TPU, calibration_maps=train[:8])
        ncs2 = EdgeDeployment(trained, PI_NCS2)
        assert (
            tpu.cost_report(test).test_energy_j < ncs2.cost_report(test).test_energy_j
        )
