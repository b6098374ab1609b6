"""Per-user serving sessions, sharded by a deterministic user hash.

A session is the server-side mirror of one wearable: which cluster the
cold-start assignment picked (and with what confidence margin), whether
the user has been personalized yet, and the temporal-smoothing vote
that turns raw predictions into stable decisions.  Sessions see
feature maps only; turning raw samples into maps is the edge
detector's job (:mod:`repro.edge.streaming`).  Sessions are grouped
into shards by a *seed-independent* SHA-256 hash of the user id, so
any fleet node — or any rerun of a benchmark — places every user
identically.
"""

from __future__ import annotations

import hashlib
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


def shard_for(user_id: int, num_shards: int) -> int:
    """Deterministic user-to-shard assignment.

    SHA-256 rather than ``hash()``: python's string hash is randomized
    per process (PYTHONHASHSEED), which would scatter users differently
    on every run and break run-to-run comparability of shard metrics.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    digest = hashlib.sha256(str(int(user_id)).encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") % int(num_shards)


class ShardedSessions:
    """All connected sessions, bucketed into deterministic shards."""

    def __init__(self, num_shards: int = 8):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = int(num_shards)
        self._shards: List[Dict[int, UserSession]] = [
            {} for _ in range(self.num_shards)
        ]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, user_id: int) -> bool:
        return int(user_id) in self._shards[shard_for(user_id, self.num_shards)]

    def add(self, session: UserSession) -> int:
        """Place a session; returns its shard.  Duplicate connect is typed."""
        shard = shard_for(session.user_id, self.num_shards)
        if session.user_id in self._shards[shard]:
            raise ServingError(
                f"user {session.user_id} is already connected"
            )
        self._shards[shard][session.user_id] = session
        return shard

    def get(self, user_id: int) -> UserSession:
        shard = shard_for(user_id, self.num_shards)
        session = self._shards[shard].get(int(user_id))
        if session is None:
            raise ServingError(
                f"no session for user {user_id}; call connect() first"
            )
        return session

    def shard_sizes(self) -> List[int]:
        return [len(shard) for shard in self._shards]

    def all_sessions(self) -> List[UserSession]:
        """Every session, in (shard, user id) order — deterministic."""
        out: List[UserSession] = []
        for shard in self._shards:
            out.extend(shard[uid] for uid in sorted(shard))
        return out
