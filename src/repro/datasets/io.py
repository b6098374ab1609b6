"""Corpus persistence: save/load generated populations as .npz bundles.

Feature extraction dominates corpus generation time, so workflows that
reuse a corpus (the CLI, repeated experiments) save it once and reload.
Raw signal traces are not persisted — a
:class:`~repro.scenarios.base.MaterializedPopulation`'s feature maps,
labels and per-subject ground truth (archetype, generation, device,
imputed features) are sufficient for every experiment in the
repository.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Union

import numpy as np

from ..scenarios.base import (
    DeviceProfile,
    MaterializedPopulation,
    ScenarioSubject,
)
from ..signals.feature_map import FeatureMap

FORMAT_VERSION = 2


def save_dataset(
    population: MaterializedPopulation, path: Union[str, Path]
) -> Path:
    """Write a population to a single .npz file."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)

    meta = {
        "format_version": FORMAT_VERSION,
        "name": population.name,
        "subjects": [],
    }
    arrays = {}
    for subject in population.subjects:
        sid = subject.subject_id
        meta["subjects"].append(
            {
                "subject_id": sid,
                "archetype_id": subject.archetype_id,
                "generation": subject.generation,
                "device": dataclasses.asdict(subject.device),
                "imputed_features": subject.imputed_features,
                "labels": [int(l) for l in subject.labels],
            }
        )
        for i, fmap in enumerate(subject.maps):
            arrays[f"maps/{sid}/{i}"] = fmap.values
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)
    return path


def load_dataset(path: Union[str, Path]) -> MaterializedPopulation:
    """Load a population saved by :func:`save_dataset`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(bytes(data["__meta__"].tobytes()).decode("utf-8"))
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported dataset format: {meta.get('format_version')}"
            )
        subjects = []
        for entry in meta["subjects"]:
            sid = int(entry["subject_id"])
            device = dict(entry["device"])
            for key in ("rate_scales", "missing_modalities"):
                device[key] = tuple(device[key])
            labels = entry["labels"]
            maps = [
                FeatureMap(
                    np.asarray(data[f"maps/{sid}/{i}"], dtype=np.float64),
                    label=int(labels[i]),
                    subject_id=sid,
                )
                for i in range(len(labels))
            ]
            subjects.append(
                ScenarioSubject(
                    subject_id=sid,
                    archetype_id=int(entry["archetype_id"]),
                    maps=maps,
                    device=DeviceProfile(**device),
                    generation=int(entry["generation"]),
                    imputed_features=int(entry["imputed_features"]),
                )
            )
    return MaterializedPopulation(name=meta["name"], subjects=subjects)
