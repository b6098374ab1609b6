"""Typed error hierarchy for the resilience layer.

These live at the package root (not under :mod:`repro.resilience`) so
that low-level modules — :mod:`repro.nn.checkpoint` in particular — can
raise typed resilience errors without importing the resilience package,
which itself depends on ``nn`` and ``signals`` (a cycle otherwise).

The contract these types encode: when the edge runtime hits a realistic
fault (dead sensor, truncated checkpoint, flaky federated client), it
either raises one of these — never a bare ``KeyError`` or
``zipfile.BadZipFile`` — or degrades gracefully and reports how in a
:class:`~repro.resilience.degradation.HealthStatus`.
"""

from __future__ import annotations


class ResilienceError(RuntimeError):
    """Base class for every typed failure the resilience layer raises."""


class PaddingError(ValueError):
    """A padding spec cannot be resolved to static symmetric pads.

    Raised by :func:`repro.nn.layers.conv.resolve_padding` for
    ``'same'`` with an even kernel: ceil-mode output there needs
    input-size-dependent *asymmetric* pads, which :class:`Conv2D`
    computes per batch but a static ``(ph, pw)`` pair cannot express.
    A ``ValueError`` subclass so pre-existing callers that caught
    ``ValueError`` keep working.
    """


class CheckpointError(ResilienceError):
    """A checkpoint file is missing, truncated, corrupt, or fails its checksum."""


class RetryError(ResilienceError):
    """A retried operation exhausted its attempts or deadline.

    Attributes
    ----------
    attempts:
        How many times the operation was tried before giving up.
    last_error:
        The exception raised by the final attempt (also chained as
        ``__cause__``).
    """

    def __init__(
        self,
        message: str,
        attempts: int = 0,
        last_error: Exception | None = None,
    ):
        super().__init__(message)
        self.attempts = int(attempts)
        self.last_error = last_error


class FederatedRoundError(ResilienceError):
    """Every client in a federated round failed, even after retries."""


class CacheError(ResilienceError):
    """A runtime cache entry cannot be read, written, or deserialized.

    Raised by :mod:`repro.runtime.cache` with the offending file path in
    the message; a *miss* is never an error (it returns ``None``), only
    corruption or an unusable cache directory is.
    """


class OrchestrationError(ResilienceError):
    """A pipeline graph is malformed or a stage broke its contract.

    Raised by :mod:`repro.orchestration` when a graph declares duplicate
    or missing artifacts, contains a dependency cycle, or a stage's
    output fails its boundary guard.  The message always names the
    offending stage or artifact.
    """


class ExecutorError(ResilienceError):
    """The execution layer cannot run work units at all.

    Raised for platform-level problems — e.g. requesting the default
    ``fork`` start method on an OS that does not support it.  The
    message always says what to pass instead.
    """


class ServingError(ResilienceError):
    """The serving layer rejected a request or cannot serve a model.

    Raised by :mod:`repro.serving` for *hard* failures — admission
    control past its reject limit, a session for an unknown user, a
    registry entry that cannot be rehydrated.  Overload below the hard
    limit never raises: it sheds to the population-average fallback and
    records the shed in the decision's
    :class:`~repro.resilience.degradation.HealthStatus` instead.
    """


class AdmissionError(ServingError):
    """Admission control rejected the request outright (hard limit).

    Attributes
    ----------
    queue_depth:
        Pending request count at rejection time.
    limit:
        The policy limit that was exceeded.
    """

    def __init__(self, message: str, queue_depth: int = 0, limit: int = 0):
        super().__init__(message)
        self.queue_depth = int(queue_depth)
        self.limit = int(limit)


class JournalError(OrchestrationError):
    """A run journal is unreadable or does not match the graph run.

    Raised when ``--resume`` points at a journal written by a different
    graph / config / seed / input set — silently mixing two runs'
    artifacts would be worse than failing.  A *corrupt* journaled
    artifact is never fatal: the stage simply re-runs.
    """
