"""Admission control: accept, shed to the fallback, or reject — typed.

Overload handling reuses the resilience layer's degradation ladder
instead of inventing a new one.  Below ``max_pending`` requests are
served normally; between ``max_pending`` and ``hard_limit`` they are
*shed* — answered by the pinned population-average fallback model with
a FALLBACK :class:`~repro.resilience.degradation.HealthStatus` (see
:func:`~repro.resilience.degradation.overload_shed_status`), exactly
the rung a low-confidence cold start lands on, reached here for a
capacity reason.  Past ``hard_limit`` the request is rejected with a
typed :class:`~repro.errors.AdmissionError` carrying the queue depth
and the limit, never a silent drop.

Shedding to a *shared* fallback is also a throughput move: all shed
traffic coalesces into one population bucket, so the overloaded server
serves its excess load in the largest, best-amortized batches it has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


#: Admission decisions, from best to worst.
ACCEPT = "accept"
SHED = "shed"
REJECT = "reject"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Queue-depth thresholds for the three admission outcomes.

    Attributes
    ----------
    max_pending:
        Pending-request depth at which new requests start shedding to
        the population fallback.
    hard_limit:
        Depth at which new requests are rejected outright
        (:class:`~repro.errors.AdmissionError`).
    """

    max_pending: int = 256
    hard_limit: int = 1024

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.hard_limit < self.max_pending:
            raise ValueError("hard_limit must be >= max_pending")


class AdmissionController:
    """Applies an :class:`AdmissionPolicy`, counting every outcome."""

    def __init__(self, policy: Optional[AdmissionPolicy] = None):
        self.policy = policy or AdmissionPolicy()
        self.accepted = 0
        self.shed = 0
        self.rejected = 0

    def admit(self, queue_depth: int) -> str:
        """Decide one request's fate given the current pending depth."""
        if queue_depth >= self.policy.hard_limit:
            self.rejected += 1
            return REJECT
        if queue_depth >= self.policy.max_pending:
            self.shed += 1
            return SHED
        self.accepted += 1
        return ACCEPT

    @property
    def total(self) -> int:
        return self.accepted + self.shed + self.rejected

    @property
    def shed_rate(self) -> float:
        return self.shed / self.total if self.total else 0.0

    @property
    def reject_rate(self) -> float:
        return self.rejected / self.total if self.total else 0.0

    def to_dict(self) -> Dict:
        return {
            "accepted": self.accepted,
            "shed": self.shed,
            "rejected": self.rejected,
            "shed_rate": self.shed_rate,
            "reject_rate": self.reject_rate,
        }
