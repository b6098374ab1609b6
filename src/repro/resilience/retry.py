"""Retry with exponential backoff and a hard deadline, on an injectable clock.

Edge deployments fetch checkpoints over flaky links and federated
rounds collect updates from clients that crash or stall; both need
retry semantics that are (a) bounded by a wall-clock deadline, not just
an attempt count, and (b) testable without sleeping.  The clock is
therefore an explicit dependency: production code uses
:class:`MonotonicClock`, tests use :class:`FakeClock` and observe the
exact backoff schedule.

Lint rule RPR007 enforces the other half of the contract: library code
under ``src/repro`` never calls ``time.time()`` / ``time.sleep()``
directly — this module is the single sanctioned wrapper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple, Type, TypeVar

from ..errors import RetryError

T = TypeVar("T")


class Clock:
    """Injectable time source: ``now()`` seconds + ``sleep()``."""

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError


class MonotonicClock(Clock):
    """The real wall clock (monotonic, immune to NTP steps)."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)  # repro: noqa[RPR007] — the sanctioned wrapper


class FakeClock(Clock):
    """Deterministic clock for tests: sleeping advances virtual time."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self.sleeps: List[float] = []

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self.sleeps.append(float(seconds))
        self._now += float(seconds)

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep."""
        self._now += float(seconds)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff bounded by attempts and an optional deadline.

    Attributes
    ----------
    max_attempts:
        Total tries, including the first one.
    base_delay_s / backoff_factor / max_delay_s:
        Delay before retry *k* (1-based) is
        ``min(base_delay_s * backoff_factor**(k-1), max_delay_s)``.
    deadline_s:
        Overall budget measured from the first attempt; when the next
        backoff would land past the deadline, retrying stops early.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    backoff_factor: float = 2.0
    max_delay_s: float = 10.0
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")

    def delays(self) -> Iterator[float]:
        """The backoff delay before each retry (max_attempts - 1 values)."""
        delay = self.base_delay_s
        for _ in range(self.max_attempts - 1):
            yield min(delay, self.max_delay_s)
            delay *= self.backoff_factor


def retry_call(
    fn: Callable[[], T],
    policy: Optional[RetryPolicy] = None,
    clock: Optional[Clock] = None,
    retry_on: Tuple[Type[BaseException], ...] = (Exception,),
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    description: str = "operation",
) -> T:
    """Call ``fn`` until it succeeds, the attempts run out, or the deadline hits.

    Parameters
    ----------
    fn:
        Zero-argument callable; its return value is passed through.
    policy / clock:
        Backoff schedule and time source (defaults: 3 attempts,
        :class:`MonotonicClock`).
    retry_on:
        Exception types that trigger a retry; anything else propagates
        immediately.
    on_retry:
        Called as ``on_retry(attempt_number, exception)`` before each
        backoff sleep — the hook for logging / metrics.

    Raises
    ------
    RetryError
        When every attempt failed or the deadline expired; carries
        ``attempts`` and ``last_error`` and chains the final exception.
    """
    policy = policy or RetryPolicy()
    clock = clock or MonotonicClock()
    start = clock.now()
    delays = policy.delays()
    attempts = 0
    while True:
        attempts += 1
        try:
            return fn()
        except retry_on as exc:
            delay = next(delays, None)
            elapsed = clock.now() - start
            out_of_time = (
                policy.deadline_s is not None
                and delay is not None
                and elapsed + delay > policy.deadline_s
            )
            if delay is None or out_of_time:
                reason = "deadline exceeded" if out_of_time else "attempts exhausted"
                raise RetryError(
                    f"{description} failed after {attempts} attempt(s) "
                    f"({reason}, {elapsed:.3f}s elapsed): "
                    f"{type(exc).__name__}: {exc}",
                    attempts=attempts,
                    last_error=exc,
                ) from exc
            if on_retry is not None:
                on_retry(attempts, exc)
            clock.sleep(delay)
