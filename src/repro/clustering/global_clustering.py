"""Global Clustering (GC): iterative user clustering (paper §III-A.2).

Users are represented by their mean feature vector (one column of the
paper's D ∈ R^{F×N}).  After a k-means++ start, centroids are refined
iteratively: each round re-estimates user signatures from a random
subsample of their feature maps, recomputes centroids from current
memberships, and reassigns any user whose nearest centroid changed —
the refinement loop of Gutiérrez-Martín et al. [19].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..orchestration.grouping import iter_subject_maps
from ..signals.feature_map import FeatureMap
from .kmeans import KMeans, pairwise_sq_distances
from .scaling import StandardScaler


def subject_matrix(
    maps_by_subject: Dict[int, Sequence[FeatureMap]],
    rng: Optional[np.random.Generator] = None,
    subsample_fraction: float = 1.0,
) -> np.ndarray:
    """Stack per-subject signatures into (N, F), optionally subsampled.

    A signature is the mean over a subject's window vectors; with
    ``subsample_fraction < 1`` a random subset of the subject's maps is
    used, which is how GC's refinement rounds resample the data.
    """
    if not maps_by_subject:
        raise ValueError("no subjects provided")
    rows = []
    for subject_id, subject_maps in iter_subject_maps(maps_by_subject):
        maps = list(subject_maps)
        if subsample_fraction < 1.0 and rng is not None and len(maps) > 1:
            count = max(1, int(round(subsample_fraction * len(maps))))
            idx = rng.choice(len(maps), size=count, replace=False)
            maps = [maps[i] for i in idx]
        vectors = np.concatenate([m.values.T for m in maps], axis=0)  # (sumW, F)
        rows.append(vectors.mean(axis=0))
    return np.stack(rows, axis=0)


@dataclass
class GlobalClusteringResult:
    """Fitted GC model: scaler, centroids, and user assignments."""

    k: int
    scaler: StandardScaler
    centroids: np.ndarray  # (k, F) in scaled space
    assignments: Dict[int, int]  # subject_id -> cluster
    n_refinements: int
    converged: bool

    def members(self, cluster: int) -> List[int]:
        return [s for s, c in self.assignments.items() if c == cluster]

    def cluster_sizes(self) -> List[int]:
        return [len(self.members(c)) for c in range(self.k)]

    def assign_signature(self, signature: np.ndarray) -> int:
        """Nearest-centroid cluster for a raw (unscaled) signature."""
        scaled = self.scaler.transform(np.atleast_2d(signature))
        return int(pairwise_sq_distances(scaled, self.centroids).argmin())


class GlobalClustering:
    """The GC fitting procedure.

    Parameters
    ----------
    k:
        Number of clusters (the paper selects K = 4).
    n_refinements:
        Maximum resample-recompute-reassign rounds.
    subsample_fraction:
        Fraction of each subject's maps drawn per refinement round.
    seed:
        RNG seed.
    """

    def __init__(
        self,
        k: int = 4,
        n_refinements: int = 10,
        subsample_fraction: float = 0.8,
        seed: int = 0,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 0.0 < subsample_fraction <= 1.0:
            raise ValueError(
                f"subsample_fraction must be in (0, 1], got {subsample_fraction}"
            )
        self.k = int(k)
        self.n_refinements = int(n_refinements)
        self.subsample_fraction = float(subsample_fraction)
        self.seed = seed

    def fit(
        self, maps_by_subject: Dict[int, Sequence[FeatureMap]]
    ) -> GlobalClusteringResult:
        subject_ids = sorted(maps_by_subject)
        if len(subject_ids) < self.k:
            raise ValueError(
                f"cannot form {self.k} clusters from {len(subject_ids)} subjects"
            )
        rng = np.random.default_rng(self.seed)

        # Initial fit on full-data signatures.
        raw = subject_matrix(maps_by_subject)
        scaler = StandardScaler().fit(raw)
        scaled = scaler.transform(raw)
        km = KMeans(self.k, seed=self.seed).fit(scaled)
        labels = km.labels.copy()
        centroids = km.centers.copy()

        converged = False
        rounds = 0
        for rounds in range(1, self.n_refinements + 1):
            # Re-estimate signatures from a subsample of each user's maps.
            resampled = subject_matrix(
                maps_by_subject, rng=rng, subsample_fraction=self.subsample_fraction
            )
            scaled_rs = scaler.transform(resampled)
            # Recompute centroids from the *current* memberships.
            for c in range(self.k):
                members = scaled_rs[labels == c]
                if members.shape[0] > 0:
                    centroids[c] = members.mean(axis=0)
            # Reassign users whose nearest centroid changed.
            new_labels = pairwise_sq_distances(scaled, centroids).argmin(axis=1)
            # Keep clusters non-empty: a cluster that lost all members
            # retains its closest user.
            for c in range(self.k):
                if not np.any(new_labels == c):
                    dists = pairwise_sq_distances(scaled, centroids[c : c + 1]).ravel()
                    new_labels[int(dists.argmin())] = c
            if np.array_equal(new_labels, labels):
                converged = True
                break
            labels = new_labels

        # Final centroids from the stable assignment on full signatures.
        for c in range(self.k):
            members = scaled[labels == c]
            if members.shape[0] > 0:
                centroids[c] = members.mean(axis=0)

        # Canonicalize cluster labels: order clusters by their smallest
        # member subject id.  k-means labels are an arbitrary permutation
        # of its restart seeding; pinning a canonical order makes every
        # downstream artifact that keys off the cluster index (per-cluster
        # training seeds, checkpoint files, report rows) invariant to the
        # restart scheme.
        order = sorted(
            range(self.k),
            key=lambda c: (
                int(np.flatnonzero(labels == c)[0])
                if np.any(labels == c)
                else len(subject_ids) + c
            ),
        )
        relabel = {old: new for new, old in enumerate(order)}
        labels = np.array([relabel[int(c)] for c in labels], dtype=labels.dtype)
        centroids = centroids[order]

        assignments = {
            subject_id: int(labels[i]) for i, subject_id in enumerate(subject_ids)
        }
        return GlobalClusteringResult(
            k=self.k,
            scaler=scaler,
            centroids=centroids,
            assignments=assignments,
            n_refinements=rounds,
            converged=converged,
        )
