"""Per-user serving sessions.

A session is the server-side mirror of one wearable: which cluster the
cold-start assignment picked (and with what confidence margin), whether
the user has been personalized yet, and the temporal-smoothing vote
that turns raw predictions into stable decisions.  Sessions see
feature maps only; turning raw samples into maps is the edge
detector's job (:mod:`repro.edge.streaming`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import ServingError
from ..resilience.degradation import MajorityVote
from .registry import GroupKey


class UserSession:
    """Server-side state for one connected user.

    ``group_key()`` is the micro-batcher's coalescing key: before
    personalization every user of a cluster shares ``("cluster", c)``
    (their requests batch together against the shared checkpoint);
    after :meth:`mark_personalized` the user gets a private
    ``("user", uid)`` group served by their fine-tuned model.
    """

    def __init__(
        self,
        user_id: int,
        cluster: int,
        margin: float,
        smoothing: int = 3,
    ):
        self.user_id = int(user_id)
        self.cluster = int(cluster)
        self.margin = float(margin)
        self.personalized = False
        self._vote = MajorityVote(smoothing)
        self._issued = 0  # request indices handed out
        self._next_emit = 0  # next request index the reorder buffer releases
        self._held: Dict[int, Tuple] = {}

    # -- request bookkeeping ----------------------------------------------
    def next_request_index(self) -> int:
        index = self._issued
        self._issued += 1
        return index

    def group_key(self) -> GroupKey:
        if self.personalized:
            return ("user", self.user_id)
        return ("cluster", self.cluster)

    def mark_personalized(self) -> None:
        self.personalized = True

    # -- decision smoothing (the vote OnlineDetector uses too) ------------
    def smooth(self, raw: int) -> int:
        """Majority vote over the last ``smoothing`` raw predictions."""
        return self._vote(raw)

    # -- reorder buffer ----------------------------------------------------
    # Smoothing is order-dependent, so results must be released in
    # request order even when a user's requests finish out of order
    # (e.g. one shed to the population bucket while the next rode the
    # cluster bucket).  Completed work parks here until contiguous.
    def hold(self, request_index: int, payload: Tuple) -> None:
        if request_index in self._held or request_index < self._next_emit:
            raise ServingError(
                f"user {self.user_id} request {request_index} completed twice"
            )
        self._held[int(request_index)] = payload

    def release_ready(self) -> List[Tuple[int, Tuple]]:
        """Pop ``(request_index, payload)`` pairs now contiguous, in order."""
        ready: List[Tuple[int, Tuple]] = []
        while self._next_emit in self._held:
            ready.append((self._next_emit, self._held.pop(self._next_emit)))
            self._next_emit += 1
        return ready

    @property
    def pending_results(self) -> int:
        return len(self._held)

