"""Supervised process execution: deadlines, retries, quarantine, survivors.

:class:`~repro.runtime.executor.ParallelExecutor` assumes every work
unit is well-behaved: one poisoned unit (raises), one crashed worker
(``os._exit`` / OOM-kill), or one wedged unit (deadlock) aborts the
whole fan-out with no partial results.  At fleet scale — 100k-subject
sweeps, federated rounds where client dropout is the *norm* — that
contract is wrong.  :class:`SupervisedExecutor` runs each unit attempt
in its **own** child process and supervises it:

* **per-unit deadline** (:class:`SupervisionPolicy.unit_timeout_s`) on
  an injectable :class:`~repro.resilience.retry.Clock` — a hung worker
  is detected, SIGKILLed, and its slot replaced with a fresh process,
  so one wedged unit can never brown-out the pool;
* **unit-level retry** reusing
  :class:`~repro.resilience.retry.RetryPolicy` (attempts, exponential
  backoff, optional seeded jitter).  Work units carry their own
  pre-spawned ``SeedSequence`` material, so a retried attempt re-runs
  the *same* RNG stream — results after a transient failure are
  bit-identical to an unfailed run;
* **quarantine**: a unit that exhausts its attempts becomes a typed
  :class:`UnitFailure` instead of an exception in someone else's
  stack, and the sweep keeps going;
* **partial results**: :meth:`SupervisedExecutor.map_supervised`
  always returns a :class:`SupervisedOutcome` — survivors in unit
  order plus a machine-readable failure manifest.  Plain ``map()``
  raises a typed :class:`~repro.errors.SupervisionError` on quarantine
  unless the policy opts into partial mode.

Chaos testing hooks straight in: executor-level
:class:`~repro.resilience.faults.FaultPlan` faults (``UnitRaise`` /
``WorkerCrash`` / ``UnitHang``) are injected at the top of each worker
attempt via ``fault_plan=``, deterministically in (unit, attempt).

Process-per-attempt is deliberately chosen over a shared pool: a
long-lived pool cannot kill one hung member without tearing down its
siblings, while a per-attempt child makes kill-and-replace exact — and
with ``fork`` on Linux the spawn cost is far below the unit cost of
any fold-sized work this layer supervises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import SupervisionError
from ..resilience.retry import Clock, MonotonicClock, RetryPolicy
from .executor import Executor, resolve_mp_context

#: Failure kinds recorded in a :class:`UnitFailure`.
FAILURE_EXCEPTION = "exception"  # the worker function raised
FAILURE_CRASH = "crash"  # the worker process died without reporting
FAILURE_TIMEOUT = "timeout"  # the unit blew its deadline and was killed

#: How long (s) to wait for a child that already sent its result to exit
#: before escalating to SIGKILL — generous, since a healthy child exits
#: immediately after its final ``send``.
_REAP_GRACE_S = 30.0


@dataclass(frozen=True)
class UnitFailure:
    """One quarantined work unit, machine-readable.

    Attributes
    ----------
    index:
        The unit's position in the submitted work list.
    kind:
        ``"exception"`` (worker raised), ``"crash"`` (process died with
        no result on the wire), or ``"timeout"`` (deadline exceeded,
        worker killed).
    attempts:
        Attempts consumed before quarantine (== the policy budget).
    error_type / message:
        Exception class name + message for ``exception`` failures; the
        exit code / deadline description otherwise.
    """

    index: int
    kind: str
    attempts: int
    error_type: str = ""
    message: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
        }


@dataclass(frozen=True)
class SupervisionPolicy:
    """How a supervised fan-out treats misbehaving units.

    Attributes
    ----------
    retry:
        Attempt budget + backoff schedule per unit (a unit is
        quarantined after ``retry.max_attempts`` failed attempts).
        ``retry.jitter`` desynchronizes fleet backoff; it requires an
        explicit ``rng`` on the executor.
    unit_timeout_s:
        Per-unit deadline measured from the attempt's process launch;
        ``None`` disables hang detection.
    partial_results:
        When true, :meth:`SupervisedExecutor.map` returns survivors
        (with ``None`` at quarantined slots) instead of raising
        :class:`~repro.errors.SupervisionError`; the full manifest is
        on :attr:`SupervisedExecutor.last_outcome`.
    """

    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=2, base_delay_s=0.0)
    )
    unit_timeout_s: Optional[float] = None
    partial_results: bool = False

    def __post_init__(self) -> None:
        if self.unit_timeout_s is not None and self.unit_timeout_s <= 0:
            raise ValueError("unit_timeout_s must be positive when set")


@dataclass
class SupervisedOutcome:
    """Survivors plus the failure manifest of one supervised fan-out.

    ``results`` is in unit order with ``None`` placeholders at
    quarantined indices (consult ``failures`` to distinguish a failed
    unit from a unit that legitimately returned ``None``).
    """

    results: List[Any]
    failures: Tuple[UnitFailure, ...] = ()
    attempts: Tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def failed_indices(self) -> Tuple[int, ...]:
        return tuple(f.index for f in self.failures)

    def survivors(self) -> List[Tuple[int, Any]]:
        """``(index, result)`` pairs of every non-quarantined unit."""
        failed = set(self.failed_indices())
        return [
            (i, r) for i, r in enumerate(self.results) if i not in failed
        ]

    def manifest(self) -> Dict[str, Any]:
        """The machine-readable record a caller can persist or report."""
        return {
            "units": len(self.results),
            "succeeded": len(self.results) - len(self.failures),
            "quarantined": [f.as_dict() for f in self.failures],
            "attempts": list(self.attempts),
        }


def _supervised_worker(conn, fn, item, index, attempt, fault_plan) -> None:
    """Child-process entry: inject faults, run the unit, report once.

    Every outcome is reported on ``conn`` — except a hard crash
    (``os._exit`` / SIGKILL), which the parent detects as EOF with a
    dead process, exactly like a real worker death.
    """
    try:
        if fault_plan is not None:
            fault_plan.apply_to_unit(index, attempt)
        payload = ("ok", fn(item))
    except BaseException as exc:  # report, then die quietly
        payload = ("error", type(exc).__name__, str(exc))
    try:
        conn.send(payload)
    except Exception as exc:  # e.g. unpicklable result object
        conn.send(("error", type(exc).__name__, f"unsendable result: {exc}"))
    finally:
        conn.close()


@dataclass
class _Attempt:
    """One in-flight child process executing one unit attempt."""

    index: int
    attempt: int  # 1-based
    process: Any
    conn: Any
    deadline: Optional[float]  # on the supervisor's clock


class _UnitState:
    """Supervisor-side bookkeeping for one work unit."""

    def __init__(self, index: int, delays: Iterable[float]):
        self.index = index
        self.attempts = 0
        self.eligible_at = 0.0  # clock time before which we must not launch
        self._delays = iter(delays)
        self.last_failure: Optional[UnitFailure] = None

    def next_delay(self) -> Optional[float]:
        """Backoff before the next retry, or None when out of attempts."""
        return next(self._delays, None)


class SupervisedExecutor(Executor):
    """Deadline-supervised, retrying, quarantining process executor.

    Parameters
    ----------
    workers:
        Maximum concurrently running unit attempts (default: CPU count).
    policy:
        The :class:`SupervisionPolicy` (default: 2 attempts, no
        deadline, strict mode).
    clock:
        Injectable time source for deadlines and backoff sleeps.
    rng:
        Explicit generator for seeded backoff jitter (mandatory when
        ``policy.retry.jitter > 0``).
    fault_plan:
        Executor-level :class:`~repro.resilience.faults.FaultPlan`
        injected at the top of every worker attempt (chaos testing).
    mp_context:
        Multiprocessing start method (default ``fork``; see
        :func:`~repro.runtime.executor.resolve_mp_context`).
    """

    name = "supervised"

    def __init__(
        self,
        workers: Optional[int] = None,
        policy: Optional[SupervisionPolicy] = None,
        clock: Optional[Clock] = None,
        rng: Optional[np.random.Generator] = None,
        fault_plan: Any = None,
        mp_context: Optional[str] = None,
    ):
        import os

        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.policy = policy or SupervisionPolicy()
        self.clock = clock or MonotonicClock()
        self.rng = rng
        self.fault_plan = fault_plan
        self.mp_context = mp_context
        if self.policy.retry.jitter > 0.0 and rng is None:
            raise ValueError(
                "a jittered SupervisionPolicy needs an explicit rng "
                "(no OS entropy in library code)"
            )
        self.last_outcome: Optional[SupervisedOutcome] = None

    # -- Executor contract -------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Ordered results; behaviour on quarantine follows the policy.

        Strict mode (default) raises
        :class:`~repro.errors.SupervisionError` carrying the failure
        manifest.  ``partial_results`` mode returns survivors with
        ``None`` placeholders; the manifest is on ``last_outcome``.
        """
        outcome = self.map_supervised(fn, items)
        if outcome.failures and not self.policy.partial_results:
            names = ", ".join(
                f"unit {f.index} ({f.kind} after {f.attempts} attempt(s): "
                f"{f.error_type or f.message})"
                for f in outcome.failures
            )
            raise SupervisionError(
                f"{len(outcome.failures)} work unit(s) quarantined: {names}",
                failures=outcome.failures,
            )
        return outcome.results

    # -- the supervisor ----------------------------------------------------
    def map_supervised(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> SupervisedOutcome:
        """Run every unit under supervision; never raises for unit failures."""
        items = list(items)
        n = len(items)
        if n == 0:
            self.last_outcome = SupervisedOutcome(results=[])
            return self.last_outcome

        context = resolve_mp_context(self.mp_context)
        results: List[Any] = [None] * n
        units = [
            _UnitState(i, self.policy.retry.delays(self.rng)) for i in range(n)
        ]
        pending: List[_UnitState] = list(units)  # FIFO launch order
        running: List[_Attempt] = []
        quarantined: Dict[int, UnitFailure] = {}

        def _launch(unit: _UnitState) -> None:
            unit.attempts += 1
            recv, send = context.Pipe(duplex=False)
            process = context.Process(
                target=_supervised_worker,
                args=(
                    send,
                    fn,
                    items[unit.index],
                    unit.index,
                    unit.attempts,
                    self.fault_plan,
                ),
            )
            process.daemon = True
            process.start()
            send.close()  # parent keeps only the read end
            deadline = (
                None
                if self.policy.unit_timeout_s is None
                else self.clock.now() + self.policy.unit_timeout_s
            )
            running.append(
                _Attempt(unit.index, unit.attempts, process, recv, deadline)
            )

        def _reap(attempt: _Attempt) -> None:
            attempt.conn.close()
            attempt.process.join(_REAP_GRACE_S)
            if attempt.process.is_alive():  # pathological: refuse to exit
                attempt.process.kill()
                attempt.process.join()
            running.remove(attempt)

        def _fail(attempt: _Attempt, failure: UnitFailure) -> None:
            unit = units[attempt.index]
            unit.last_failure = failure
            delay = unit.next_delay()
            if delay is None:  # retry budget exhausted -> quarantine
                quarantined[unit.index] = failure
            else:
                unit.eligible_at = self.clock.now() + delay
                pending.append(unit)

        while pending or running:
            now = self.clock.now()
            # Fill free slots with eligible units, in unit order.
            launchable = [
                u
                for u in pending
                if u.eligible_at <= now and u.index not in quarantined
            ]
            while launchable and len(running) < self.workers:
                unit = launchable.pop(0)
                pending.remove(unit)
                _launch(unit)

            if not running:
                # Everything waits on backoff: sleep to the next horizon.
                wake = min(u.eligible_at for u in pending)
                self.clock.sleep(max(0.0, wake - self.clock.now()))
                continue

            # Wait until a worker reports / dies, a deadline expires, or
            # a backed-off unit becomes launchable.
            horizons = [
                a.deadline - now for a in running if a.deadline is not None
            ]
            if pending and len(running) < self.workers:
                horizons.extend(u.eligible_at - now for u in pending)
            timeout = max(0.0, min(horizons)) if horizons else None
            ready = _wait_on([a.conn for a in running], timeout)

            for attempt in list(running):
                if attempt.conn in ready:
                    self._handle_report(attempt, results, _reap, _fail)
                elif (
                    attempt.deadline is not None
                    and self.clock.now() >= attempt.deadline
                ):
                    # Hung worker: SIGKILL and replace the slot.
                    attempt.process.kill()
                    attempt.process.join()
                    _reap(attempt)
                    _fail(
                        attempt,
                        UnitFailure(
                            index=attempt.index,
                            kind=FAILURE_TIMEOUT,
                            attempts=attempt.attempt,
                            message=(
                                f"unit exceeded its "
                                f"{self.policy.unit_timeout_s}s deadline "
                                f"and was killed"
                            ),
                        ),
                    )

        failures = tuple(quarantined[i] for i in sorted(quarantined))
        self.last_outcome = SupervisedOutcome(
            results=results,
            failures=failures,
            attempts=tuple(u.attempts for u in units),
        )
        return self.last_outcome

    def _handle_report(self, attempt, results, reap, fail) -> None:
        """One readable connection: a result, an error, or a dead worker."""
        try:
            message = attempt.conn.recv()
        except (EOFError, OSError):
            # No payload and the pipe is gone: the process hard-died.
            reap(attempt)
            exit_code = attempt.process.exitcode
            fail(
                attempt,
                UnitFailure(
                    index=attempt.index,
                    kind=FAILURE_CRASH,
                    attempts=attempt.attempt,
                    message=f"worker died without a result "
                    f"(exit code {exit_code})",
                ),
            )
            return
        reap(attempt)
        if message[0] == "ok":
            results[attempt.index] = message[1]
        else:
            _, error_type, error_message = message
            fail(
                attempt,
                UnitFailure(
                    index=attempt.index,
                    kind=FAILURE_EXCEPTION,
                    attempts=attempt.attempt,
                    error_type=error_type,
                    message=error_message,
                ),
            )


def _wait_on(connections: List[Any], timeout: Optional[float]) -> List[Any]:
    """``multiprocessing.connection.wait`` behind one seam (testable)."""
    from multiprocessing.connection import wait

    return list(wait(connections, timeout=timeout))


def supervised_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
    clock: Optional[Clock] = None,
    rng: Optional[np.random.Generator] = None,
    fault_plan: Any = None,
    mp_context: Optional[str] = None,
) -> SupervisedOutcome:
    """One-shot supervised fan-out returning the full outcome.

    The convenience entry point for sweeps that want survivors + a
    failure manifest without keeping an executor around.
    """
    executor = SupervisedExecutor(
        workers=workers,
        policy=policy,
        clock=clock,
        rng=rng,
        fault_plan=fault_plan,
        mp_context=mp_context,
    )
    return executor.map_supervised(fn, items)
