"""Persistence of a fitted CLEAR system (cloud -> edge shipping).

The paper's workflow saves the best per-cluster checkpoints on the
cloud and deploys them to edge devices.  This module serializes a
:class:`~repro.core.pipeline.CLEARSystem` to a directory:

```
system_dir/
  manifest.json          # config + clustering state + normalizer stats
  cluster_0.npz          # per-cluster CNN-LSTM checkpoints
  cluster_1.npz
  ...
```
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from ..clustering.assignment import ColdStartAssigner
from ..clustering.global_clustering import GlobalClusteringResult
from ..clustering.scaling import StandardScaler
from ..clustering.subclusters import SubClusterModel
from ..nn.checkpoint import load_model, save_model
from ..signals.feature_map import FeatureNormalizer
from .config import CLEARConfig, FineTuneConfig, ModelConfig, TrainingConfig
from .pipeline import CLEARSystem
from .trainer import TrainedModel

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1


def _config_to_dict(config: CLEARConfig) -> Dict:
    return dataclasses.asdict(config)


def _config_from_dict(data: Dict) -> CLEARConfig:
    data = dict(data)
    model = dict(data["model"])
    training = dict(data["training"])
    # Older manifests record the compute backend (every model runs on
    # one) and a validation split fraction (training holds none back).
    model.pop("backend", None)
    training.pop("validation_fraction", None)
    data["model"] = ModelConfig(**{
        **model,
        "conv_filters": tuple(model["conv_filters"]),
        "pool_size": tuple(model["pool_size"]),
    })
    data["training"] = TrainingConfig(**training)
    data["fine_tuning"] = FineTuneConfig(**data["fine_tuning"])
    return CLEARConfig(**data)


def save_system(system: CLEARSystem, directory: Union[str, Path]) -> Path:
    """Write a fitted CLEAR system to ``directory``.

    Everything needed to serve new users at the edge is captured: the
    GC scaler and centroids, per-cluster sub-centroids and assignments
    (for CA), the per-cluster checkpoints, and each checkpoint's
    feature normalizer.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    manifest = {
        "format_version": FORMAT_VERSION,
        "config": _config_to_dict(system.config),
        "gc": {
            "k": system.gc.k,
            "centroids": system.gc.centroids.tolist(),
            "assignments": {str(k): v for k, v in system.gc.assignments.items()},
            "n_refinements": system.gc.n_refinements,
            "converged": system.gc.converged,
            "scaler_mean": system.gc.scaler.mean_.tolist(),
            "scaler_std": system.gc.scaler.std_.tolist(),
        },
        "subclusters": {
            str(cluster): model.centroids.tolist()
            for cluster, model in system.subclusters.items()
        },
        "normalizers": {},
        "checkpoints": {},
    }

    for cluster, trained in system.cluster_models.items():
        ckpt_name = f"cluster_{cluster}.npz"
        save_model(trained.model, directory / ckpt_name)
        manifest["checkpoints"][str(cluster)] = ckpt_name
        manifest["normalizers"][str(cluster)] = {
            "mean": trained.normalizer.mean_.ravel().tolist(),
            "std": trained.normalizer.std_.ravel().tolist(),
        }

    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as f:
        json.dump(manifest, f)
    return directory


def load_system(directory: Union[str, Path]) -> CLEARSystem:
    """Load a CLEAR system saved by :func:`save_system`."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no CLEAR manifest at {manifest_path}")
    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported CLEAR system format: {manifest.get('format_version')}"
        )

    config = _config_from_dict(manifest["config"])

    gc_data = manifest["gc"]
    scaler = StandardScaler()
    scaler.mean_ = np.asarray(gc_data["scaler_mean"], dtype=np.float64)
    scaler.std_ = np.asarray(gc_data["scaler_std"], dtype=np.float64)
    gc = GlobalClusteringResult(
        k=int(gc_data["k"]),
        scaler=scaler,
        centroids=np.asarray(gc_data["centroids"], dtype=np.float64),
        assignments={int(k): int(v) for k, v in gc_data["assignments"].items()},
        n_refinements=int(gc_data["n_refinements"]),
        converged=bool(gc_data["converged"]),
    )

    subclusters = {
        int(cluster): SubClusterModel(
            cluster=int(cluster),
            centroids=np.asarray(centroids, dtype=np.float64),
        )
        for cluster, centroids in manifest["subclusters"].items()
    }

    cluster_models: Dict[int, TrainedModel] = {}
    for cluster_str, ckpt_name in manifest["checkpoints"].items():
        cluster = int(cluster_str)
        model = load_model(directory / ckpt_name)
        norm_data = manifest["normalizers"][cluster_str]
        normalizer = FeatureNormalizer()
        normalizer.mean_ = np.asarray(norm_data["mean"], dtype=np.float64)[:, None]
        normalizer.std_ = np.asarray(norm_data["std"], dtype=np.float64)[:, None]
        cluster_models[cluster] = TrainedModel(model=model, normalizer=normalizer)

    assigner = ColdStartAssigner(gc, subclusters)
    return CLEARSystem(
        config=config,
        gc=gc,
        subclusters=subclusters,
        assigner=assigner,
        cluster_models=cluster_models,
    )
