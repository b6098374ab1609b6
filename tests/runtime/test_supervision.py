"""SupervisedExecutor: deadlines, retries, quarantine, partial results."""

import numpy as np
import pytest

from repro.errors import ExecutorError, SupervisionError
from repro.resilience.faults import (
    FaultPlan,
    UnitHang,
    WorkerCrash,
    get_fault_plan,
)
from repro.resilience.retry import RetryPolicy
from repro.runtime import (
    FAILURE_CRASH,
    FAILURE_EXCEPTION,
    FAILURE_TIMEOUT,
    SerialExecutor,
    SupervisedExecutor,
    SupervisedOutcome,
    SupervisionPolicy,
    UnitFailure,
    supervised_map,
)

pytestmark = pytest.mark.chaos


def square(x):
    return x * x


def seeded_draw(seed_seq):
    """A worker whose result is purely a function of its embedded seed."""
    rng = np.random.default_rng(seed_seq)
    return float(rng.normal())


def no_delay(max_attempts):
    return RetryPolicy(max_attempts=max_attempts, base_delay_s=0.0)


class TestHappyPath:
    def test_ordered_results_match_serial(self):
        items = list(range(8))
        expected = SerialExecutor().map(square, items)
        assert SupervisedExecutor(workers=4).map(square, items) == expected

    def test_empty_work_list(self):
        executor = SupervisedExecutor(workers=2)
        assert executor.map(square, []) == []
        assert executor.last_outcome.ok

    def test_outcome_attempts_all_one(self):
        outcome = supervised_map(square, range(4), workers=2)
        assert outcome.attempts == (1, 1, 1, 1)
        assert outcome.ok
        assert outcome.manifest()["quarantined"] == []

    def test_large_results_do_not_deadlock(self):
        # Results far beyond the OS pipe buffer: the supervisor must
        # drain connections while children are still alive.
        results = SupervisedExecutor(workers=3).map(
            lambda x: np.full(200_000, float(x)), range(5)
        )
        assert [float(r[0]) for r in results] == [0.0, 1.0, 2.0, 3.0, 4.0]


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            SupervisedExecutor(workers=0)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(unit_timeout_s=0.0)

    def test_jitter_requires_rng(self):
        policy = SupervisionPolicy(retry=RetryPolicy(jitter=0.5))
        with pytest.raises(ValueError, match="rng"):
            SupervisedExecutor(workers=1, policy=policy)
        SupervisedExecutor(
            workers=1, policy=policy, rng=np.random.default_rng(0)
        )

    def test_bad_mp_context_raises_typed(self):
        executor = SupervisedExecutor(workers=2, mp_context="no-such-method")
        with pytest.raises(ExecutorError, match="no-such-method"):
            executor.map(square, range(4))


class TestPoisonUnit:
    def test_strict_mode_raises_supervision_error(self):
        executor = SupervisedExecutor(
            workers=2,
            policy=SupervisionPolicy(retry=no_delay(1)),
            fault_plan=get_fault_plan("unit_poison"),
        )
        with pytest.raises(SupervisionError) as excinfo:
            executor.map(square, range(3))
        (failure,) = excinfo.value.failures
        assert failure.index == 1
        assert failure.kind == FAILURE_EXCEPTION
        assert failure.error_type == "WorkUnitPoisonError"

    def test_partial_mode_returns_survivors(self):
        outcome = supervised_map(
            square,
            range(4),
            workers=2,
            policy=SupervisionPolicy(retry=no_delay(2), partial_results=True),
            fault_plan=get_fault_plan("unit_poison"),
        )
        assert outcome.results == [0, None, 4, 9]
        assert outcome.failed_indices() == (1,)
        assert outcome.survivors() == [(0, 0), (2, 4), (3, 9)]
        (failure,) = outcome.failures
        assert failure.attempts == 2  # budget fully consumed

    def test_partial_mode_map_does_not_raise(self):
        executor = SupervisedExecutor(
            workers=2,
            policy=SupervisionPolicy(retry=no_delay(1), partial_results=True),
            fault_plan=get_fault_plan("unit_poison"),
        )
        assert executor.map(square, range(3)) == [0, None, 4]
        assert not executor.last_outcome.ok

    def test_manifest_is_machine_readable(self):
        outcome = supervised_map(
            square,
            range(3),
            workers=2,
            policy=SupervisionPolicy(retry=no_delay(1), partial_results=True),
            fault_plan=get_fault_plan("unit_poison"),
        )
        manifest = outcome.manifest()
        assert manifest["units"] == 3
        assert manifest["succeeded"] == 2
        assert manifest["quarantined"][0]["kind"] == FAILURE_EXCEPTION
        import json

        json.dumps(manifest)  # fully serializable


class TestRetry:
    def test_transient_failure_recovers(self):
        outcome = supervised_map(
            square,
            range(4),
            workers=2,
            policy=SupervisionPolicy(retry=no_delay(3)),
            fault_plan=get_fault_plan("unit_transient"),
        )
        assert outcome.ok
        assert outcome.results == [0, 1, 4, 9]
        assert outcome.attempts == (1, 2, 1, 1)  # unit 1 needed one retry

    def test_retried_unit_is_seed_stable(self):
        """A retried unit re-runs its embedded seed: results are
        bit-identical to a run with no failures at all."""
        seeds = np.random.SeedSequence(1234).spawn(4)
        clean = supervised_map(seeded_draw, seeds, workers=2)
        faulty = supervised_map(
            seeded_draw,
            seeds,
            workers=2,
            policy=SupervisionPolicy(retry=no_delay(3)),
            fault_plan=get_fault_plan("unit_transient"),
        )
        assert faulty.ok
        assert faulty.results == clean.results  # exact float equality

    def test_crash_then_recover(self):
        outcome = supervised_map(
            square,
            range(3),
            workers=2,
            policy=SupervisionPolicy(retry=no_delay(2)),
            fault_plan=get_fault_plan("worker_crash"),
        )
        assert outcome.ok
        assert outcome.attempts[1] == 2


class TestWorkerCrash:
    def test_persistent_crash_quarantined(self):
        plan = FaultPlan(
            name="crash-forever",
            faults=(WorkerCrash(unit_index=1, fail_attempts=None),),
            seed=7,
        )
        outcome = supervised_map(
            square,
            range(3),
            workers=2,
            policy=SupervisionPolicy(retry=no_delay(2), partial_results=True),
            fault_plan=plan,
        )
        (failure,) = outcome.failures
        assert failure.kind == FAILURE_CRASH
        assert "exit code 77" in failure.message
        assert outcome.results == [0, None, 4]

    def test_crash_does_not_poison_siblings(self):
        plan = FaultPlan(
            name="crash-forever",
            faults=(WorkerCrash(unit_index=0, fail_attempts=None),),
            seed=7,
        )
        outcome = supervised_map(
            square,
            range(6),
            workers=3,
            policy=SupervisionPolicy(retry=no_delay(1), partial_results=True),
            fault_plan=plan,
        )
        assert outcome.results[1:] == [1, 4, 9, 16, 25]


class TestHungWorker:
    def test_hang_is_killed_and_reported(self):
        plan = FaultPlan(
            name="hang-forever",
            faults=(UnitHang(unit_index=1, fail_attempts=None),),
            seed=7,
        )
        outcome = supervised_map(
            square,
            range(4),
            workers=2,
            policy=SupervisionPolicy(
                retry=no_delay(1),
                unit_timeout_s=0.3,
                partial_results=True,
            ),
            fault_plan=plan,
        )
        (failure,) = outcome.failures
        assert failure.kind == FAILURE_TIMEOUT
        assert "deadline" in failure.message
        assert outcome.results == [0, None, 4, 9]

    def test_pool_slot_replaced_after_kill(self):
        """The units queued behind a hung one still complete."""
        plan = FaultPlan(
            name="hang-first",
            faults=(UnitHang(unit_index=0, fail_attempts=None),),
            seed=7,
        )
        outcome = supervised_map(
            square,
            range(5),
            workers=1,  # single slot: unit 0 blocks everything until killed
            policy=SupervisionPolicy(
                retry=no_delay(1),
                unit_timeout_s=0.3,
                partial_results=True,
            ),
            fault_plan=plan,
        )
        assert outcome.results[1:] == [1, 4, 9, 16]
        assert outcome.failed_indices() == (0,)

    def test_transient_hang_recovers_on_retry(self):
        plan = FaultPlan(
            name="hang-once",
            faults=(UnitHang(unit_index=1, fail_attempts=1),),
            seed=7,
        )
        outcome = supervised_map(
            square,
            range(3),
            workers=2,
            policy=SupervisionPolicy(retry=no_delay(2), unit_timeout_s=0.3),
            fault_plan=plan,
        )
        assert outcome.ok
        assert outcome.results == [0, 1, 4]
        assert outcome.attempts[1] == 2


class TestDataStructures:
    def test_unit_failure_round_trips(self):
        failure = UnitFailure(
            index=3,
            kind=FAILURE_CRASH,
            attempts=2,
            message="worker died",
        )
        assert UnitFailure(**failure.as_dict()) == failure

    def test_outcome_none_result_vs_failure(self):
        """A unit legitimately returning None is not a failure."""
        outcome = supervised_map(lambda x: None, range(2), workers=1)
        assert outcome.ok
        assert outcome.results == [None, None]
        assert outcome.survivors() == [(0, None), (1, None)]

    def test_supervised_outcome_defaults(self):
        outcome = SupervisedOutcome(results=[1, 2])
        assert outcome.ok
        assert outcome.failed_indices() == ()


class TestDeterminism:
    def test_same_plan_same_outcome(self):
        plan = get_fault_plan("unit_poison")
        policy = SupervisionPolicy(retry=no_delay(2), partial_results=True)
        first = supervised_map(
            square, range(4), workers=2, policy=policy, fault_plan=plan
        )
        second = supervised_map(
            square, range(4), workers=2, policy=policy, fault_plan=plan
        )
        assert first.results == second.results
        assert first.failures == second.failures
        assert first.attempts == second.attempts

    def test_worker_count_does_not_change_outcome(self):
        plan = get_fault_plan("unit_transient")
        policy = SupervisionPolicy(retry=no_delay(3))
        seeds = np.random.SeedSequence(99).spawn(6)
        wide = supervised_map(
            seeded_draw, seeds, workers=4, policy=policy, fault_plan=plan
        )
        narrow = supervised_map(
            seeded_draw, seeds, workers=1, policy=policy, fault_plan=plan
        )
        assert wide.results == narrow.results
        assert wide.attempts == narrow.attempts
