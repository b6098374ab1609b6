"""Training / evaluation on feature maps: the bridge between data and nn."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..analysis.graph import validate_architecture
from ..signals.feature_map import FeatureMap, FeatureNormalizer, maps_to_arrays
from .architecture import build_cnn_lstm, freeze_feature_extractor
from .config import FineTuneConfig, ModelConfig, TrainingConfig


@dataclass
class TrainedModel:
    """A trained classifier bundled with its input normalizer."""

    model: nn.Sequential
    normalizer: FeatureNormalizer

    def _prepare(self, maps: Sequence[FeatureMap]) -> Tuple[np.ndarray, np.ndarray]:
        normalized = self.normalizer.transform_all(list(maps))
        return maps_to_arrays(normalized)

    def predict_classes(self, maps: Sequence[FeatureMap]) -> np.ndarray:
        x, _ = self._prepare(maps)
        return self.model.predict_classes(x)

    def evaluate(self, maps: Sequence[FeatureMap]) -> Dict[str, float]:
        """Accuracy and binary F1 (fear = positive class) on maps."""
        if not maps:
            raise ValueError("cannot evaluate on an empty map set")
        x, y = self._prepare(maps)
        preds = self.model.predict_classes(x)
        return {
            "accuracy": nn.accuracy(y, preds),
            "f1": nn.f1_score(y, preds, positive_class=1),
        }

    def clone_weights(self) -> List[Dict[str, np.ndarray]]:
        return self.model.get_weights()


def train_on_maps(
    train_maps: Sequence[FeatureMap],
    model_config: Optional[ModelConfig] = None,
    training: Optional[TrainingConfig] = None,
    seed: int = 0,
) -> TrainedModel:
    """Train a fresh CNN-LSTM on labelled feature maps.

    The normalizer is fitted on the training maps only (leak-free), the
    optimizer is Adam with gradient clipping, and the best epoch by
    training accuracy is restored at the end (the paper keeps the
    best-performing checkpoint per cluster).
    """
    train_maps = list(train_maps)
    if len(train_maps) < 2:
        raise ValueError(f"need at least 2 training maps, got {len(train_maps)}")
    model_config = model_config or ModelConfig()
    training = training or TrainingConfig()

    normalizer = FeatureNormalizer().fit(train_maps)
    x, y = maps_to_arrays(normalizer.transform_all(train_maps))
    input_shape = x.shape[1:]

    # Pre-flight: reject a mis-shaped architecture statically, before any
    # parameter is allocated or epoch runs (GraphValidationError names the
    # offending layer).
    validate_architecture(input_shape, model_config)

    model = build_cnn_lstm(input_shape, model_config, seed=seed)
    model.compile(
        nn.SoftmaxCrossEntropy(),
        nn.Adam(lr=training.learning_rate, clipnorm=training.clipnorm),
    )

    callbacks: List[nn.Callback] = [
        nn.BestWeights(),
        nn.EarlyStopping(patience=training.early_stopping_patience),
    ]

    model.fit(
        x,
        y,
        epochs=training.epochs,
        batch_size=training.batch_size,
        callbacks=callbacks,
    )
    return TrainedModel(model=model, normalizer=normalizer)


def maps_content(maps: Sequence[FeatureMap]) -> List[Tuple]:
    """Canonical content tuple per map, for content-addressed cache keys."""
    return [(m.values, int(m.label), int(m.subject_id)) for m in maps]


def train_on_maps_cached(
    train_maps: Sequence[FeatureMap],
    model_config: Optional[ModelConfig] = None,
    training: Optional[TrainingConfig] = None,
    seed: int = 0,
    cache_dir: Optional[str] = None,
) -> Tuple[TrainedModel, int, int]:
    """:func:`train_on_maps` behind the content-addressed checkpoint cache.

    Returns ``(model, cache_hits, cache_misses)``.  The key is SHA-256
    over the training-map bytes plus the full model/training config and
    seed, so a warm cache returns the *identical* trained checkpoint
    and any config or data change re-trains transparently.  With
    ``cache_dir=None`` this is plain training with zeroed counters.
    """
    if cache_dir is None:
        return train_on_maps(train_maps, model_config, training, seed=seed), 0, 0

    # Opened through the orchestration context (the single injection
    # point for runtime machinery, RPR009); lazy so a forked worker
    # builds its own handle on the shared store.
    from ..orchestration.context import open_checkpoint_cache

    cache = open_checkpoint_cache(cache_dir)
    key = cache.key(
        "trained_fold.v1",
        maps_content(list(train_maps)),
        model_config or ModelConfig(),
        training or TrainingConfig(),
        seed,
    )
    cached = cache.load_object(key)
    if cached is not None:
        return cached, 1, 0
    model = train_on_maps(train_maps, model_config, training, seed=seed)
    cache.store_object(key, model)
    return model, 0, 1


def fine_tune(
    base: TrainedModel,
    labeled_maps: Sequence[FeatureMap],
    config: Optional[FineTuneConfig] = None,
    seed: int = 0,
) -> TrainedModel:
    """Personalize a trained cluster model with a user's labelled maps.

    The base model's weights are copied (the cluster checkpoint stays
    intact for other users); the conv feature extractor is frozen per
    the config; training runs a short, low-learning-rate schedule.
    The cluster normalizer is reused so the new user's inputs live in
    the same space the checkpoint was trained in.
    """
    labeled_maps = list(labeled_maps)
    if not labeled_maps:
        raise ValueError("fine-tuning needs at least one labelled map")
    config = config or FineTuneConfig()

    x, y = maps_to_arrays(base.normalizer.transform_all(labeled_maps))

    from ..nn.checkpoint import model_from_config, model_to_config

    tuned = model_from_config(model_to_config(base.model), seed=seed)
    tuned.validate(x.shape[1:])  # pre-flight: fail before any fine-tuning step
    tuned.forward(x[:1])  # build
    tuned.set_weights(base.model.get_weights())
    if config.freeze_feature_extractor:
        freeze_feature_extractor(tuned)
    tuned.compile(
        nn.SoftmaxCrossEntropy(),
        nn.Adam(lr=config.learning_rate, clipnorm=5.0),
    )
    tuned.fit(
        x,
        y,
        epochs=config.epochs,
        batch_size=min(config.batch_size, x.shape[0]),
        callbacks=[nn.BestWeights()],
    )
    return TrainedModel(model=tuned, normalizer=base.normalizer)
