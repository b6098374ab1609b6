"""Tests for training / fine-tuning on feature maps."""

import numpy as np
import pytest

from repro.core import FineTuneConfig, ModelConfig, TrainingConfig, fine_tune, train_on_maps
from repro.signals import FeatureMap


def make_separable_maps(rng, n=24, f=16, w=4, shift=2.0, subject=0):
    """Label-1 maps have a mean shift in the first half of features."""
    maps = []
    for i in range(n):
        label = i % 2
        values = rng.normal(size=(f, w))
        if label == 1:
            values[: f // 2] += shift
        maps.append(FeatureMap(values, label=label, subject_id=subject))
    return maps


@pytest.fixture
def rng():
    return np.random.default_rng(21)


FAST = TrainingConfig(epochs=12, batch_size=8, early_stopping_patience=4)
SMALL_MODEL = ModelConfig(conv_filters=(4, 8), lstm_units=8, dropout=0.0)


class TestTrainOnMaps:
    def test_learns_separable_task(self, rng):
        maps = make_separable_maps(rng, n=32)
        trained = train_on_maps(maps, SMALL_MODEL, FAST, seed=0)
        metrics = trained.evaluate(maps)
        assert metrics["accuracy"] > 0.9

    def test_generalizes_to_held_out(self, rng):
        train = make_separable_maps(rng, n=40)
        test = make_separable_maps(rng, n=12)
        trained = train_on_maps(train, SMALL_MODEL, FAST, seed=0)
        assert trained.evaluate(test)["accuracy"] > 0.8

    def test_normalizer_fitted_on_train_only(self, rng):
        maps = make_separable_maps(rng, n=16)
        trained = train_on_maps(maps, SMALL_MODEL, FAST, seed=0)
        assert trained.normalizer.mean_ is not None

    def test_too_few_maps_raises(self, rng):
        with pytest.raises(ValueError, match="at least 2"):
            train_on_maps(make_separable_maps(rng, n=1), SMALL_MODEL, FAST)

    def test_evaluate_empty_raises(self, rng):
        trained = train_on_maps(make_separable_maps(rng, n=8), SMALL_MODEL, FAST)
        with pytest.raises(ValueError, match="empty"):
            trained.evaluate([])

    def test_predict_classes_shape(self, rng):
        maps = make_separable_maps(rng, n=8)
        trained = train_on_maps(maps, SMALL_MODEL, FAST, seed=0)
        preds = trained.predict_classes(maps)
        assert preds.shape == (8,)
        assert set(np.unique(preds)) <= {0, 1}

    def test_determinism(self, rng):
        maps = make_separable_maps(rng, n=16)
        a = train_on_maps(maps, SMALL_MODEL, FAST, seed=9)
        b = train_on_maps(maps, SMALL_MODEL, FAST, seed=9)
        np.testing.assert_array_equal(a.predict_classes(maps), b.predict_classes(maps))


class TestFineTune:
    def test_base_model_untouched(self, rng):
        base_maps = make_separable_maps(rng, n=24)
        base = train_on_maps(base_maps, SMALL_MODEL, FAST, seed=0)
        before = [w.copy() for w in base.model.get_weights()[0].values()]

        user_maps = make_separable_maps(rng, n=6, subject=99)
        fine_tune(base, user_maps, FineTuneConfig(epochs=3), seed=0)

        after = list(base.model.get_weights()[0].values())
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b, a)

    def test_frozen_conv_layers_not_updated(self, rng):
        base = train_on_maps(make_separable_maps(rng, n=16), SMALL_MODEL, FAST, seed=0)
        tuned = fine_tune(
            base,
            make_separable_maps(rng, n=6, subject=1),
            FineTuneConfig(epochs=3, freeze_feature_extractor=True),
            seed=0,
        )
        for idx, layer in enumerate(tuned.model.layers):
            if layer.name in ("conv1", "conv2"):
                np.testing.assert_array_equal(
                    layer.params["W"], base.model.layers[idx].params["W"]
                )

    def test_unfrozen_head_updated(self, rng):
        base = train_on_maps(make_separable_maps(rng, n=16), SMALL_MODEL, FAST, seed=0)
        tuned = fine_tune(
            base,
            make_separable_maps(rng, n=8, subject=1),
            FineTuneConfig(epochs=5),
            seed=0,
        )
        head_before = base.model.layers[-1].params["W"]
        head_after = tuned.model.layers[-1].params["W"]
        assert not np.array_equal(head_before, head_after)

    def test_adapts_to_shifted_user(self, rng):
        """Fine-tuning must fix a user whose responses are offset."""
        base_maps = make_separable_maps(rng, n=40, shift=2.0)
        base = train_on_maps(base_maps, SMALL_MODEL, FAST, seed=0)

        def shifted_user_maps(n, seed):
            user_rng = np.random.default_rng(seed)
            maps = make_separable_maps(user_rng, n=n, shift=2.0, subject=5)
            # A strong idiosyncratic offset on all features.
            return [
                FeatureMap(m.values + 4.0, m.label, m.subject_id) for m in maps
            ]

        ft_maps = shifted_user_maps(10, seed=1)
        test_maps = shifted_user_maps(20, seed=2)
        base_acc = base.evaluate(test_maps)["accuracy"]
        tuned = fine_tune(base, ft_maps, FineTuneConfig(epochs=10), seed=0)
        tuned_acc = tuned.evaluate(test_maps)["accuracy"]
        assert tuned_acc >= base_acc

    def test_reuses_cluster_normalizer(self, rng):
        base = train_on_maps(make_separable_maps(rng, n=16), SMALL_MODEL, FAST, seed=0)
        tuned = fine_tune(
            base, make_separable_maps(rng, n=4, subject=2), FineTuneConfig(epochs=2)
        )
        assert tuned.normalizer is base.normalizer

    def test_empty_maps_raise(self, rng):
        base = train_on_maps(make_separable_maps(rng, n=8), SMALL_MODEL, FAST)
        with pytest.raises(ValueError, match="at least one"):
            fine_tune(base, [])
