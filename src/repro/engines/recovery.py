"""The one shard-mapping loop, and its policy: deadlines and checkpoints.

Every sharded run — inline or on pool threads, with or without
fault-tolerance options — maps its shards through :func:`map_shards`;
the transports in :mod:`repro.engines.execution` only run one shard
each. Each shard runs once: a shard's error is the kernel's, and a
deterministic kernel that raised once would raise again, so it
propagates unchanged. An expired :class:`Deadline` cancels outstanding
shards through the transport's cancel token and reports the pattern as
interrupted (the session turns that into a
:class:`repro.PartialRunResult`), and completed shards are journaled to
a :class:`repro.checkpoint.ShardCheckpoint` so a resumed run skips them
(visible as ``shard.checkpoint`` tracer spans). A run with no option
gets a default :class:`RunControl`: no deadline, no checkpoint.

Everything stays deterministic: results are merged in ascending shard
index. The differential matrix in ``tests/test_fault_tolerance.py``
pins deadline-bounded, resumed and degraded runs to the serial oracle
byte-for-byte.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.aggregation import Aggregation
from repro.core.canonical import pattern_id
from repro.core.pattern import Pattern
from repro.engines.base import MiningEngine
from repro.graph.datagraph import DataGraph
from repro.observe.tracer import timed_span
from repro.testing.faults import FaultPlan

if TYPE_CHECKING:
    from repro.engines.execution import ShardExecutor, ShardResult

__all__ = [
    "Deadline",
    "PatternReport",
    "RunControl",
    "checkpoint_key",
    "map_shards",
]


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
        deadline: "Deadline | float | None" = None,
        checkpoint: Any | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.deadline = Deadline.resolve(deadline)
        self.checkpoint = checkpoint
        self.faults = faults if faults else None
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
    whether the pattern was interrupted. One pass: checkpointed shards
    are skipped (a ``shard.checkpoint`` span each), every other shard is
    submitted once (the inline transport runs each as it is submitted,
    so the deadline is checked between shards), and the completed ones
    are harvested in shard order. A shard's exception propagates
    unchanged. Completed shards are journaled to the control's
    checkpoint on every exit, an interrupted pattern or a raised error
    included: that is what makes resume work. Every exit that leaves a
    shard outstanding sets the transport's cancel token, which releases
    wedged pool threads and stops polling kernels.
    """
    # Imported here: ``import repro`` needs this module's policy types,
    # not the transports.
    from repro.engines.execution import ShardTask

    report = PatternReport(total_shards=len(shards))
    control.reports.append(report)
    deadline = control.deadline
    key = checkpoint_key(pattern, aggregation)
    results: dict[int, ShardResult] = {}
    pending: list[int] = []
    for index, shard in enumerate(shards):
        hit = (
            control.checkpoint.get(key, shard)
            if control.checkpoint is not None
            else None
        )
        if hit is None:
            pending.append(index)
            continue
        with timed_span(tracer, "shard.checkpoint", shard=index, window=list(shard)):
            pass
        results[index] = hit
        report.completed_shards += 1
        report.checkpointed_shards += 1
    executor.begin_pattern()
    try:
        futures: dict[int, Future] = {}
        for index in pending:
            if control.expired():
                break
            task = ShardTask(
                pattern,
                aggregation,
                shards[index],
                index,
                control.faults,
                collect_spans=tracer is not None,
            )
            futures[index] = executor.submit(engine, graph, task, deadline)
        timeout = None if deadline is None else max(0.0, deadline.remaining())
        _done, not_done = wait_futures(futures.values(), timeout=timeout)
        for index, future in futures.items():
            if future in not_done:
                future.cancel()
                continue
            part = future.result()  # a shard's error propagates unchanged
            if part is None:
                continue  # a hang the deadline released: no result
            value, stats, spans = part
            if spans:
                tracer.adopt(spans)
            results[index] = (value, stats)
            report.completed_shards += 1
    finally:
        if len(results) < len(shards):
            executor.cancel()  # release polite hangs and polling kernels
        # Journal every completed shard, including on interruption or a
        # raised error, so the next run resumes from here.
        if control.checkpoint is not None:
            for index in sorted(results):
                value, stats = results[index]
                control.checkpoint.put(key, shards[index], index, value, stats)
    report.interrupted = len(results) < len(shards)
    return results
