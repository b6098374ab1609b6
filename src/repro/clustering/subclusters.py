"""Hierarchical sub-cluster structure within each global cluster.

For cold-start Cluster Assignment (CA, paper §III-B.1) each main
cluster k is subdivided into internal sub-clusters with centroids
C_{k,i}; a new user is compared against these finer centroids rather
than only the main ones, which makes the assignment robust to users
who sit between cluster cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..orchestration.grouping import member_maps as _member_maps
from ..signals.feature_map import FeatureMap
from .global_clustering import GlobalClusteringResult
from .kmeans import KMeans


@dataclass
class SubClusterModel:
    """Sub-centroids of one main cluster (scaled feature space)."""

    cluster: int
    centroids: np.ndarray  # (I_k, F)

    @property
    def num_subclusters(self) -> int:
        return int(self.centroids.shape[0])


def map_mean_vectors(maps: Sequence[FeatureMap]) -> np.ndarray:
    """Per-map mean feature vectors, shape (num_maps, F).

    Averaging over a map's windows suppresses per-window label noise
    while keeping one point per trial, which is the granularity at
    which within-cluster response modes are visible.
    """
    return np.stack([m.values.mean(axis=1) for m in maps], axis=0)


def build_subclusters(
    gc: GlobalClusteringResult,
    maps_by_subject: Dict[int, Sequence[FeatureMap]],
    subclusters_per_cluster: int = 3,
    seed: int = 0,
) -> Dict[int, SubClusterModel]:
    """Fit sub-cluster centroids inside every main cluster.

    Sub-clustering runs on the per-map mean vectors of the cluster's
    member subjects (scaled with the GC scaler), capturing within-
    cluster response modes.  If a cluster has too few vectors the
    sub-cluster count degrades gracefully.
    """
    if subclusters_per_cluster < 1:
        raise ValueError(
            f"subclusters_per_cluster must be >= 1, got {subclusters_per_cluster}"
        )
    models: Dict[int, SubClusterModel] = {}
    for cluster in range(gc.k):
        member_ids = gc.members(cluster)
        member_maps = _member_maps(maps_by_subject, member_ids)
        if not member_maps:
            # Degenerate cluster: fall back to the main centroid alone.
            models[cluster] = SubClusterModel(
                cluster=cluster, centroids=gc.centroids[cluster : cluster + 1].copy()
            )
            continue
        vectors = gc.scaler.transform(map_mean_vectors(member_maps))
        i_k = min(subclusters_per_cluster, vectors.shape[0])
        result = KMeans(i_k, seed=seed).fit(vectors)
        models[cluster] = SubClusterModel(cluster=cluster, centroids=result.centers)
    return models
