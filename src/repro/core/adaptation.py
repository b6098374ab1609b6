"""Drift detection and adaptive re-assignment for deployed users.

The paper motivates *adaptive* deep learning: user physiology is not
stationary (stress phases, medication, seasons).  A deployed CLEAR
system should notice when a user's signal distribution drifts away
from their assigned cluster and react — re-assign, or re-personalize.
:class:`DriftDetector` tracks the user's rolling feature signature,
scores its distance to the assigned cluster against the other clusters,
and recommends re-assignment once another cluster has been closer for
``patience`` consecutive checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence

from ..clustering.assignment import ColdStartAssigner
from ..signals.feature_map import FeatureMap


@dataclass
class DriftObservation:
    """One drift check."""

    check_index: int
    assigned_score: float
    best_other_cluster: int
    best_other_score: float

    @property
    def drifted(self) -> bool:
        """True when some other cluster fits the user better."""
        return self.best_other_score < self.assigned_score


class DriftDetector:
    """Rolling drift monitor for one deployed user.

    Feed recent (unlabeled) feature maps via :meth:`update`; the
    detector maintains a window of the user's newest maps, recomputes
    the CA scores, and reports whether the assigned cluster is still
    the best fit.

    Parameters
    ----------
    assigner:
        The deployment's cold-start assigner (same centroids as CA).
    assigned_cluster:
        The cluster the user currently uses.
    window_maps:
        How many recent maps form the rolling signature.
    patience:
        Consecutive drifted checks required before recommending a
        re-assignment (suppresses transient excursions).
    """

    def __init__(
        self,
        assigner: ColdStartAssigner,
        assigned_cluster: int,
        window_maps: int = 5,
        patience: int = 3,
    ):
        if window_maps < 1:
            raise ValueError("window_maps must be >= 1")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0 <= assigned_cluster < assigner.gc.k:
            raise ValueError(f"assigned_cluster {assigned_cluster} out of range")
        self.assigner = assigner
        self.assigned_cluster = int(assigned_cluster)
        self.window_maps = int(window_maps)
        self.patience = int(patience)
        self._recent: Deque[FeatureMap] = deque(maxlen=self.window_maps)
        self._consecutive_drift = 0
        self.observations: List[DriftObservation] = []

    def update(self, new_maps: Sequence[FeatureMap]) -> Optional[DriftObservation]:
        """Add maps and run one drift check (None until window fills)."""
        for fmap in new_maps:
            self._recent.append(fmap)
        if len(self._recent) < self.window_maps:
            return None
        result = self.assigner.assign(list(self._recent))
        assigned_score = result.scores[self.assigned_cluster]
        others = {
            c: s for c, s in result.scores.items() if c != self.assigned_cluster
        }
        best_other = min(others, key=others.get)
        obs = DriftObservation(
            check_index=len(self.observations),
            assigned_score=float(assigned_score),
            best_other_cluster=int(best_other),
            best_other_score=float(others[best_other]),
        )
        self.observations.append(obs)
        if obs.drifted:
            self._consecutive_drift += 1
        else:
            self._consecutive_drift = 0
        return obs

    @property
    def reassignment_recommended(self) -> bool:
        return self._consecutive_drift >= self.patience

    def recommended_cluster(self) -> Optional[int]:
        """The drift target, if re-assignment is recommended."""
        if not self.reassignment_recommended:
            return None
        return self.observations[-1].best_other_cluster

    def reset(self, new_cluster: Optional[int] = None) -> None:
        """Clear drift state (call after acting on a recommendation)."""
        if new_cluster is not None:
            if not 0 <= new_cluster < self.assigner.gc.k:
                raise ValueError(f"new_cluster {new_cluster} out of range")
            self.assigned_cluster = int(new_cluster)
        self._consecutive_drift = 0
