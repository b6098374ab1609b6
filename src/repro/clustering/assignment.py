"""Cold-start Cluster Assignment (CA) for new, unlabeled users.

Given a small, *unlabeled* slice of a new user's data (the paper uses
10 %), the user is assigned to the main cluster minimizing the summed
distance of their window vectors to that cluster's centroid and its
internal sub-centroids (paper §III-B.1).  No labels are needed — this
is the unsupervised answer to the cold-start problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..signals.feature_map import FeatureMap
from .global_clustering import GlobalClusteringResult
from .kmeans import pairwise_sq_distances
from .subclusters import SubClusterModel


@dataclass
class AssignmentResult:
    """Outcome of one cold-start assignment."""

    cluster: int
    scores: Dict[int, float]  # summed-distance score per cluster (lower wins)

    def margin(self) -> float:
        """Score gap between best and runner-up (confidence proxy)."""
        ordered = sorted(self.scores.values())
        if len(ordered) < 2:
            return 0.0
        return float(ordered[1] - ordered[0])


class ColdStartAssigner:
    """Assign new users to clusters from unlabeled feature maps."""

    def __init__(
        self,
        gc: GlobalClusteringResult,
        subclusters: Dict[int, SubClusterModel],
        main_weight: float = 1.0,
        sub_weight: float = 1.0,
    ):
        if gc.k != len(subclusters):
            raise ValueError(
                f"sub-cluster models cover {len(subclusters)} clusters, "
                f"GC has {gc.k}"
            )
        if main_weight < 0 or sub_weight < 0:
            raise ValueError("weights must be non-negative")
        if main_weight == 0 and sub_weight == 0:
            raise ValueError("at least one weight must be positive")
        self.gc = gc
        self.subclusters = subclusters
        self.main_weight = float(main_weight)
        self.sub_weight = float(sub_weight)

    def _score_cluster(self, signature: np.ndarray, cluster: int) -> float:
        """Distance of the user signature to main + sub-centroids."""
        main = self.gc.centroids[cluster : cluster + 1]
        d_main = np.sqrt(pairwise_sq_distances(signature, main)).mean()
        subs = self.subclusters[cluster].centroids
        d_sub = np.sqrt(pairwise_sq_distances(signature, subs)).mean()
        return self.main_weight * float(d_main) + self.sub_weight * float(d_sub)

    def assign(self, maps: Sequence[FeatureMap]) -> AssignmentResult:
        """Assign a new user from their (unlabeled) feature maps.

        The user is summarized by a single signature vector (mean over
        all provided window vectors), which averages out per-window
        emotional state and leaves the subject's physiological identity
        — the quantity the clusters were built on.
        """
        maps = list(maps)
        if not maps:
            raise ValueError("need at least one feature map to assign")
        vectors = np.concatenate([m.values.T for m in maps], axis=0)
        signature = vectors.mean(axis=0, keepdims=True)
        signature = self.gc.scaler.transform(signature)
        scores = {
            cluster: self._score_cluster(signature, cluster)
            for cluster in range(self.gc.k)
        }
        best = min(scores, key=scores.get)
        return AssignmentResult(cluster=int(best), scores=scores)
