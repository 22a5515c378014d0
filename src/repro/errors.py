"""Structured exception hierarchy for the fault-tolerance layer.

Every failure the execution stack can surface derives from
:class:`ReproError`, so callers embedding the library can catch one
type and still pattern-match on the concrete failure. The hierarchy
replaces the silent ``except Exception`` clamps the shard-parallel
layer used to hide degradation behind: a failure is now either
*recovered* (checkpoint resume, inline degradation — visible as tracer
spans and warnings) or *typed* (one of the classes below), never
swallowed.

Each subclass doubles as a plain stdlib type where one fits
(``GraphValidationError`` is a ``ValueError``, ``RunDeadlineExceeded``
a ``TimeoutError``), so pre-existing ``except ValueError`` call sites
keep working.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "CheckpointError",
    "GraphValidationError",
    "ReproError",
    "RunDeadlineExceeded",
    "UnservedOptionError",
    "WorkerCrashError",
]


class ReproError(Exception):
    """Base class for every structured error this package raises."""


class WorkerCrashError(ReproError):
    """A served query's run died as a worker crash.

    Raised by the daemon's chaos injection
    (:meth:`repro.testing.faults.QueryFault.fire`, a ``crash`` spec);
    ``attempts`` is the attempt of that query index it fired on, counted
    from 1. The daemon's error answer names it (``WorkerCrashError:
    …``) and its circuit breaker counts a failure; the client retries
    it under its :class:`repro.RetryPolicy`.
    """

    def __init__(self, message: str, *, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class RunDeadlineExceeded(ReproError, TimeoutError):
    """A run's deadline expired before all shards completed.

    The default deadline behavior is *graceful degradation* — the run
    returns a :class:`repro.PartialRunResult` instead of raising — so
    this type only surfaces where a partial result cannot be expressed
    (e.g. streaming mode, which has no batched store to degrade to).
    """

    def __init__(
        self, message: str, *, deadline_seconds: float | None = None
    ) -> None:
        super().__init__(message)
        self.deadline_seconds = deadline_seconds


class GraphValidationError(ReproError, ValueError):
    """A graph input failed up-front validation.

    Raised by the loaders in :mod:`repro.graph.io` (and by CSR
    construction) with the *source* context — file and line — so bad
    inputs fail at the boundary with an actionable message instead of
    deep inside the CSR build.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Any | None = None,
        line: int | None = None,
    ) -> None:
        where = ""
        if path is not None:
            where = f"{path}"
            if line is not None:
                where += f":{line}"
            where = f" [{where}]"
        super().__init__(f"{message}{where}")
        self.path = path
        self.line = line


class CheckpointError(ReproError):
    """A checkpoint file is unusable for the run resuming from it.

    Raised when the checkpoint's meta line disagrees with the resuming
    run's configuration (different graph, engine, or aggregation) or
    the file is structurally unreadable. Individually corrupt *shard
    records* do not raise — they are dropped with a warning and the
    shard is recomputed.
    """


class UnservedOptionError(ReproError, ValueError):
    """A served run asked for an option only an in-process run may use.

    The daemon refuses it at admission, before it opens a file or starts
    a shard thread: a ``checkpoint`` or ``trace`` file at a path the client
    chose (a checkpoint's records are unpickled on resume), a
    ``progress`` line on its terminal, or more ``workers`` per query
    than it has CPUs.
    """
