"""Tests for retry/backoff-with-deadline on the injectable clock."""

import pytest

from repro.errors import ResilienceError, RetryError
from repro.resilience.retry import (
    FakeClock,
    MonotonicClock,
    RetryPolicy,
    retry_call,
)


class TestFakeClock:
    def test_sleep_advances_and_records(self):
        clock = FakeClock()
        clock.sleep(1.5)
        clock.sleep(0.5)
        assert clock.now() == 2.0
        assert clock.sleeps == [1.5, 0.5]

    def test_advance_does_not_record(self):
        clock = FakeClock(start=10.0)
        clock.advance(5.0)
        assert clock.now() == 15.0
        assert clock.sleeps == []

    def test_negative_sleep_raises(self):
        with pytest.raises(ValueError, match="negative"):
            FakeClock().sleep(-1.0)


class TestMonotonicClock:
    def test_now_is_float_and_monotonic(self):
        clock = MonotonicClock()
        a, b = clock.now(), clock.now()
        assert isinstance(a, float) and b >= a


class TestRetryPolicy:
    def test_delay_schedule_exponential(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.1, backoff_factor=2.0)
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.4])

    def test_delay_capped_at_max(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=1.0, backoff_factor=10.0, max_delay_s=3.0
        )
        assert list(policy.delays()) == pytest.approx([1.0, 3.0, 3.0, 3.0])

    def test_single_attempt_has_no_delays(self):
        assert list(RetryPolicy(max_attempts=1).delays()) == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -0.1},
            {"backoff_factor": 0.5},
            {"deadline_s": 0.0},
            {"max_delay_s": -1.0},
            {"deadline_s": -5.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestRetryCall:
    def test_first_try_success_never_sleeps(self):
        clock = FakeClock()
        assert retry_call(lambda: 42, clock=clock) == 42
        assert clock.sleeps == []

    def test_recovers_after_transient_failures(self):
        clock = FakeClock()
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("link down")
            return "ok"

        result = retry_call(
            flaky,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.05),
            clock=clock,
        )
        assert result == "ok"
        assert clock.sleeps == pytest.approx([0.05, 0.1])

    def test_exhausted_attempts_raise_typed_error(self):
        clock = FakeClock()

        def always_fails():
            raise OSError("dead link")

        with pytest.raises(RetryError, match="attempts exhausted") as excinfo:
            retry_call(
                always_fails,
                policy=RetryPolicy(max_attempts=3, base_delay_s=0.05),
                clock=clock,
                description="checkpoint fetch",
            )
        err = excinfo.value
        assert err.attempts == 3
        assert isinstance(err.last_error, OSError)
        assert isinstance(err.__cause__, OSError)
        assert isinstance(err, ResilienceError)
        assert "checkpoint fetch" in str(err)
        assert len(clock.sleeps) == 2  # no sleep after the final failure

    def test_deadline_stops_before_attempts_exhaust(self):
        clock = FakeClock()

        def always_fails():
            clock.advance(1.0)  # each attempt burns one virtual second
            raise OSError("slow link")

        with pytest.raises(RetryError, match="deadline exceeded") as excinfo:
            retry_call(
                always_fails,
                policy=RetryPolicy(
                    max_attempts=10, base_delay_s=0.5, deadline_s=2.0
                ),
                clock=clock,
            )
        assert excinfo.value.attempts < 10

    def test_non_retryable_exception_propagates(self):
        def fails():
            raise ValueError("logic bug, not flakiness")

        with pytest.raises(ValueError, match="logic bug"):
            retry_call(fails, retry_on=(OSError,), clock=FakeClock())

    def test_on_retry_hook_observes_each_backoff(self):
        clock = FakeClock()
        seen = []

        def always_fails():
            raise OSError("nope")

        with pytest.raises(RetryError):
            retry_call(
                always_fails,
                policy=RetryPolicy(max_attempts=3, base_delay_s=0.05),
                clock=clock,
                on_retry=lambda attempt, exc: seen.append(
                    (attempt, type(exc).__name__)
                ),
            )
        assert seen == [(1, "OSError"), (2, "OSError")]
