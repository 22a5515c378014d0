"""The one shard-mapping loop, and its policy: retry, deadlines, checkpoints.

Every sharded run — inline or on pool threads, with or without
fault-tolerance options — maps its shards through :func:`map_shards`;
the transports in :mod:`repro.engines.execution` only run one shard
attempt each. A crashed shard is re-executed (exponential backoff +
jitter, up to :attr:`RetryPolicy.max_retries`) before the run gives up
with :class:`repro.errors.WorkerCrashError`, an expired
:class:`Deadline` cancels outstanding shards through the transport's
cancel token and reports the pattern as interrupted (the session turns
that into a :class:`repro.PartialRunResult`), and completed shards are
journaled to a :class:`repro.checkpoint.ShardCheckpoint` so a resumed
run skips them (visible as ``shard.checkpoint`` tracer spans). A run
with no option gets a default :class:`RunControl`: retry under
``RetryPolicy()``, no deadline, no checkpoint.

Everything stays deterministic: results are merged in ascending shard
index, a shard's value is the same no matter how many retries it took
to produce, and backoff jitter is seeded per ``(shard, attempt)``. The
differential matrix in ``tests/test_fault_tolerance.py`` pins
retried/resumed/degraded runs to the serial oracle byte-for-byte.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import Future
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.aggregation import Aggregation
from repro.core.canonical import pattern_id
from repro.core.pattern import Pattern
from repro.engines.base import MiningEngine
from repro.errors import WorkerCrashError
from repro.graph.datagraph import DataGraph
from repro.observe.tracer import timed_span
from repro.testing.faults import FaultPlan, InjectedWorkerCrash

if TYPE_CHECKING:
    from repro.engines.execution import ShardExecutor, ShardResult

__all__ = [
    "Deadline",
    "PatternReport",
    "RetryPolicy",
    "RunControl",
    "checkpoint_key",
    "map_shards",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How crashed shards are re-executed before the run gives up.

    ``max_retries`` bounds re-executions per shard (0 disables retry);
    a shard that crashes past the budget raises
    :class:`repro.errors.WorkerCrashError`. Backoff between attempts is
    ``backoff_seconds * backoff_factor**(attempt-1)`` stretched by up to
    ``jitter`` fraction of itself; the jitter RNG is seeded per
    ``(seed, shard, attempt)`` so runs are reproducible. ``sleep`` is
    injectable so tests retry instantly.
    """

    max_retries: int = 3
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    sleep: Callable[[float], None] = time.sleep

    def delay(self, shard_index: int, attempt: int) -> float:
        """Backoff before re-running ``shard_index``'s ``attempt``-th retry."""
        base = self.backoff_seconds * self.backoff_factor ** max(0, attempt - 1)
        rng = random.Random(f"{self.seed}:{shard_index}:{attempt}")
        return base * (1.0 + self.jitter * rng.random())

    @classmethod
    def resolve(cls, spec: "RetryPolicy | int | None") -> "RetryPolicy":
        """Normalize a policy spec: ``None`` → defaults, int → max_retries."""
        if spec is None:
            return cls()
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, int) and not isinstance(spec, bool):
            return cls(max_retries=spec)
        raise TypeError(
            f"retry must be a RetryPolicy or an int (max_retries), got {spec!r}"
        )


class Deadline:
    """A wall-clock budget for a run, started at construction.

    The clock is injectable (tests drive a fake monotonic clock), and
    ``remaining()`` feeds directly into ``concurrent.futures.wait``
    timeouts so a pool-backed run stops *waiting* the moment the budget
    expires even if a pool thread is wedged.
    """

    __slots__ = ("seconds", "clock", "_expires_at", "expiry_reason")

    def __init__(self, seconds: float, clock: Callable[[], float] = time.monotonic):
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds!r}")
        self.seconds = float(seconds)
        self.clock = clock
        self._expires_at = clock() + self.seconds
        #: Why the deadline was force-expired (``None`` for natural expiry).
        self.expiry_reason: str | None = None

    def remaining(self) -> float:
        """Seconds left before expiry (negative once past it)."""
        return self._expires_at - self.clock()

    def expired(self) -> bool:
        """Whether the budget has run out."""
        return self.remaining() <= 0.0

    def expire(self, reason: str | None = None) -> None:
        """Force immediate expiry (idempotent).

        The cancellation lever for everything already wired to this
        deadline: the next ``expired()`` / ``remaining()`` check — in the
        shard loop, the pool ``futures.wait`` timeout, a streaming
        callback — observes the budget as spent and unwinds through the
        established cancel path (``PartialRunResult`` / typed errors).
        ``reason`` is retained on :attr:`expiry_reason` for reporting
        (e.g. a service sentinel's ``"rss"`` or ``"wall-clock"`` trip).
        """
        if self.expiry_reason is None and reason is not None:
            self.expiry_reason = reason
        self._expires_at = min(self._expires_at, self.clock())

    @classmethod
    def resolve(
        cls,
        spec: "Deadline | float | int | None",
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline | None":
        """Normalize a deadline spec: ``None`` passes through, numbers start now."""
        if spec is None or isinstance(spec, cls):
            return spec
        return cls(float(spec), clock)


@dataclass
class PatternReport:
    """Per-pattern recovery bookkeeping (one per :func:`map_shards` call)."""

    label: str = ""
    total_shards: int = 0
    completed_shards: int = 0
    checkpointed_shards: int = 0
    retries: int = 0
    interrupted: bool = False

    @property
    def complete(self) -> bool:
        """Every shard of this pattern produced a (possibly cached) result."""
        return not self.interrupted and self.completed_shards >= self.total_shards


class RunControl:
    """The recovery configuration + bookkeeping threaded through a run.

    One instance lives for one ``session.run`` / ``repro.run`` call and
    is consulted by :func:`map_shards` for every pattern.
    ``reports`` accumulates one :class:`PatternReport` per executed
    pattern; the coverage fraction of a deadline-degraded run is
    ``completed_shards / total_shards`` over those reports plus one
    pattern's worth of shards for each item the run never started.
    """

    def __init__(
        self,
        *,
        retry: RetryPolicy | int | None = None,
        deadline: "Deadline | float | None" = None,
        checkpoint: Any | None = None,
        faults: FaultPlan | None = None,
        progress: Any | None = None,
    ) -> None:
        self.retry = RetryPolicy.resolve(retry)
        self.deadline = Deadline.resolve(deadline)
        self.checkpoint = checkpoint
        self.faults = faults if faults else None
        self.progress = progress
        self.reports: list[PatternReport] = []

    @property
    def interrupted(self) -> bool:
        """Whether any pattern was cut short by the deadline."""
        return any(r.interrupted for r in self.reports)

    def expired(self) -> bool:
        """Whether the run's deadline (if any) has passed."""
        return self.deadline is not None and self.deadline.expired()

    @property
    def completed_shards(self) -> int:
        return sum(r.completed_shards for r in self.reports)

    @property
    def total_shards(self) -> int:
        return sum(r.total_shards for r in self.reports)

    def charged_total(self, unstarted_items: int = 0) -> int:
        """Shard denominator for coverage: executed patterns' shards plus
        one pattern's worth (the last report's count — shard splits are
        identical across a run's patterns) for each item the deadline
        preempted entirely."""
        per_pattern = self.reports[-1].total_shards if self.reports else 1
        return self.total_shards + per_pattern * max(0, unstarted_items)

    def coverage(self, unstarted_items: int = 0) -> float:
        """Fraction of the run's shards that completed."""
        total = self.charged_total(unstarted_items)
        if total <= 0:
            return 1.0
        return self.completed_shards / total

    def event(self, kind: str, detail: str) -> None:
        """Forward a recovery event to the progress reporter, if any."""
        if self.progress is not None:
            emit = getattr(self.progress, "event", None)
            if emit is not None:
                emit(kind, detail)


def checkpoint_key(pattern: Pattern, aggregation: Aggregation) -> str:
    """Stable journal key for one (pattern, aggregation) pair.

    Built on :func:`repro.core.canonical.pattern_id` (isomorphism-class
    stable, anti-edge aware) so a resumed run matches records no matter
    how the pattern object was constructed.
    """
    agg = getattr(aggregation, "name", type(aggregation).__name__)
    return f"{pattern_id(pattern):016x}/{agg}"


def map_shards(
    executor: ShardExecutor,
    engine: MiningEngine,
    graph: DataGraph,
    pattern: Pattern,
    aggregation: Aggregation,
    shards,
    *,
    control: RunControl,
    tracer=None,
) -> dict[int, ShardResult]:
    """Map one pattern's shards through ``executor``: the one loop.

    Returns shard index → ``(value, stats)`` for every shard that
    completed, checkpoint hits included; ``control.reports[-1]`` records
    retries and interruption. Checkpointed shards are skipped (a
    ``shard.checkpoint`` span each). Then rounds: submit every
    outstanding shard (the inline transport runs each as it is
    submitted, so the deadline is checked between shards), harvest the
    completed ones in shard order, and charge each crashed one (an
    :class:`InjectedWorkerCrash`, on whichever transport) an attempt; a
    shard that crashes past the budget raises :class:`WorkerCrashError`.
    Any other exception is a genuine kernel error and propagates. An
    expired deadline stops the rounds and sets the transport's cancel
    token, which releases wedged pool threads.
    Completed shards are journaled to the control's checkpoint even
    when the pattern is interrupted or a poisoned shard raises — that
    is what makes resume work.
    """
    # Imported here: ``import repro`` needs this module's policy types,
    # not the transports.
    from repro.engines.execution import ShardTask

    report = PatternReport(total_shards=len(shards))
    control.reports.append(report)
    deadline = control.deadline
    key = checkpoint_key(pattern, aggregation)
    results: dict[int, ShardResult] = {}
    #: Outstanding shard index → attempts charged so far.
    attempts: dict[int, int] = {}
    for index, shard in enumerate(shards):
        hit = (
            control.checkpoint.get(key, shard)
            if control.checkpoint is not None
            else None
        )
        if hit is None:
            attempts[index] = 0
            continue
        with timed_span(tracer, "shard.checkpoint", shard=index, window=list(shard)):
            pass
        results[index] = hit
        report.completed_shards += 1
        report.checkpointed_shards += 1
    executor.begin_pattern()
    try:
        while attempts and not control.expired():
            futures: dict[int, Future] = {}
            for index in sorted(attempts):
                if control.expired():
                    break
                task = ShardTask(
                    pattern,
                    aggregation,
                    shards[index],
                    index,
                    attempts[index],
                    control.faults,
                    collect_spans=tracer is not None,
                )
                futures[index] = executor.submit(engine, graph, task, deadline)
            timeout = None if deadline is None else max(0.0, deadline.remaining())
            _done, not_done = wait_futures(futures.values(), timeout=timeout)
            crashed: dict[int, BaseException] = {}
            for index, future in futures.items():
                if future in not_done:
                    future.cancel()
                    continue
                exc = future.exception()
                if isinstance(exc, InjectedWorkerCrash):
                    crashed[index] = exc
                    continue
                if exc is not None:
                    raise exc  # a genuine kernel error: not recoverable noise
                part = future.result()
                if part is None:
                    continue  # a hang the deadline released: no result
                value, stats, spans = part
                if spans:
                    tracer.adopt(spans)
                results[index] = (value, stats)
                report.completed_shards += 1
                del attempts[index]
            if not_done or control.expired():
                break
            if crashed:
                _charge(crashed, attempts, shards, pattern, report, control, tracer)
    finally:
        # Journal every completed shard — including on interruption or a
        # terminal WorkerCrashError — so the next run resumes from here.
        if control.checkpoint is not None:
            for index in sorted(results):
                value, stats = results[index]
                control.checkpoint.put(key, shards[index], index, value, stats)
    if attempts:
        executor.cancel()  # release polite hangs and polling kernels
        report.interrupted = True
    return results


def _charge(crashed, attempts, shards, pattern, report, control, tracer) -> None:
    """Charge each crashed shard one attempt, with one backoff per round.

    Each shard's ``shard.retry`` span waits out only what the spans
    before it have not, so a round that lost many shards sleeps the
    largest of their backoffs once. A crash past the budget raises
    :class:`WorkerCrashError`.
    """
    retry = control.retry
    waited = 0.0
    for index, exc in crashed.items():
        attempts[index] += 1
        report.retries += 1
        attempt = attempts[index]
        error = type(exc).__name__
        if attempt > retry.max_retries:
            shard = tuple(shards[index])
            raise WorkerCrashError(
                f"shard {index} {shard} of pattern {pattern_id(pattern):016x} "
                f"still failing after {attempt} attempts",
                shard=shard,
                shard_index=index,
                attempts=attempt,
                cause=exc,
            ) from exc
        delay = retry.delay(index, attempt)
        with timed_span(
            tracer,
            "shard.retry",
            shard=index,
            attempt=attempt,
            error=error,
            backoff_seconds=delay,
        ):
            retry.sleep(max(0.0, delay - waited))
        waited = max(waited, delay)
        control.event("retry", f"shard {index} attempt {attempt} after {error}")
