"""Magnitude pruning: model compression beyond quantization.

The paper optimizes the CNN-LSTM "to balance performance and
deployability"; unstructured magnitude pruning is the next rung on
that ladder (smaller checkpoints to ship, sparse-aware accelerators).
This module prunes a trained model to a target sparsity, reports the
resulting compression, and supports prune-then-fine-tune recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.trainer import TrainedModel
from ..nn.checkpoint import model_from_config, model_to_config
from ..nn.model import Sequential


@dataclass
class SparsityReport:
    """Per-layer and global sparsity after pruning."""

    per_layer: Dict[str, float]
    global_sparsity: float
    params_total: int
    params_zero: int

    def compressed_bytes(self, bytes_per_param: int = 4) -> int:
        """Size under ideal sparse storage (nonzeros only, no indices)."""
        return (self.params_total - self.params_zero) * bytes_per_param


def _collect_magnitudes(
    model: Sequential, prunable: Sequence[str]
) -> np.ndarray:
    values = [
        np.abs(layer.params[key]).ravel()
        for layer in model.layers
        for key in layer.params
        if key in prunable
    ]
    if not values:
        raise ValueError("no prunable parameters found")
    return np.concatenate(values)


def measure_sparsity(
    model: Sequential, prunable: Sequence[str] = ("W", "U")
) -> SparsityReport:
    """Fraction of exactly-zero weights, per layer and globally."""
    per_layer: Dict[str, float] = {}
    total = 0
    zero = 0
    for layer in model.layers:
        layer_total = 0
        layer_zero = 0
        for key, value in layer.params.items():
            if key not in prunable:
                continue
            layer_total += value.size
            layer_zero += int(np.sum(value == 0.0))
        if layer_total:
            per_layer[layer.name] = layer_zero / layer_total
            total += layer_total
            zero += layer_zero
    return SparsityReport(
        per_layer=per_layer,
        global_sparsity=zero / total if total else 0.0,
        params_total=total,
        params_zero=zero,
    )


def prune_model(
    model: Sequential,
    sparsity: float,
    prunable: Sequence[str] = ("W", "U"),
) -> Sequential:
    """Return a copy of ``model`` with the smallest weights zeroed.

    Global (cross-layer) magnitude pruning: the threshold is the
    ``sparsity`` quantile of all prunable weight magnitudes.  Biases
    are never pruned.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    pruned = model_from_config(model_to_config(model), seed=0)
    for src, dst in zip(model.layers, pruned.layers):
        for key, value in src.params.items():
            dst.params[key] = value.copy()
        if src.params:
            dst.zero_grads()
        dst.built = src.built

    if sparsity == 0.0:
        return pruned
    threshold = float(
        np.quantile(_collect_magnitudes(pruned, prunable), sparsity)
    )
    for layer in pruned.layers:
        for key in layer.params:
            if key in prunable:
                weights = layer.params[key]
                weights[np.abs(weights) <= threshold] = 0.0
    return pruned


def prune_trained(
    trained: TrainedModel,
    sparsity: float,
    prunable: Sequence[str] = ("W", "U"),
) -> TrainedModel:
    """Prune a :class:`TrainedModel`, keeping its normalizer."""
    pruned = prune_model(trained.model, sparsity, prunable)
    return TrainedModel(model=pruned, normalizer=trained.normalizer)


def sparsity_sweep(
    trained: TrainedModel,
    eval_maps,
    sparsities: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9),
) -> List[Dict[str, float]]:
    """Accuracy vs sparsity curve for a trained model."""
    rows: List[Dict[str, float]] = []
    for sparsity in sparsities:
        pruned = prune_trained(trained, sparsity)
        metrics = pruned.evaluate(eval_maps)
        report = measure_sparsity(pruned.model)
        rows.append(
            {
                "target_sparsity": float(sparsity),
                "actual_sparsity": report.global_sparsity,
                "accuracy": metrics["accuracy"],
                "f1": metrics["f1"],
            }
        )
    return rows
