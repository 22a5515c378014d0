"""Shard-parallel execution layer: vertex-range sharding over any engine.

Both Peregrine (arXiv:2004.02369) and GraphPi treat the data graph's
top-level candidate vertices as an embarrassingly parallel task range;
this module reproduces that execution model on top of the unmodified
plan-interpretation kernels. A run splits the root candidate range into
degree-balanced vertex-id windows (:func:`shard_by_degree_prefix`), runs
every shard through the engine's own kernels, and merges per-shard
results **deterministically in shard order**:

* values through :meth:`repro.core.aggregation.Aggregation.merge`
  (counts add, MNI tables union per column, match lists concatenate in
  shard order — which, because shards are ascending id windows, is
  exactly the serial enumeration order);
* counters through :meth:`repro.engines.base.EngineStats.merge`.

One loop, :func:`repro.engines.recovery.map_shards`, maps every
sharded run's shards: rounds, retries, deadlines and checkpoints live
there, once. This module holds what the loop drives: :func:`run_shard`,
the one function that runs one shard attempt, and two transports whose
only job is to ``submit`` it:

* :class:`SerialShardExecutor` — runs the attempt inline, on the
  caller's thread and engine. The same split/merge code path with zero
  new failure modes, used by the differential tests to pin the parallel
  semantics to the serial kernel.
* :class:`ThreadShardExecutor` — a ``concurrent.futures``
  ``ThreadPoolExecutor``, as Peregrine's own worker threads: every pool
  thread runs its shards against the caller's :class:`DataGraph`, the
  graph already in memory, on its own copy of the engine. A pool that
  cannot start a thread degrades, for good, to inline execution.

Early termination (``StopExploration`` / saturating aggregations such as
existence probes) propagates across shards through the transport's
per-pattern :class:`CancelFlag`: the shard that saturates sets it,
kernels poll it once per root candidate, and unstarted shards return
their aggregation's zero.
"""

from __future__ import annotations

import copy
import threading
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.core.aggregation import Aggregation
from repro.core.pattern import Pattern
from repro.engines.base import EngineStats, MiningEngine
from repro.graph.datagraph import DataGraph
from repro.graph.partition import shard_by_degree_prefix
from repro.observe.tracer import Tracer, timed_span

Shard = tuple[int, int]
#: One completed shard: (un-finalized aggregation value, shard stats).
ShardResult = tuple[Any, EngineStats]


class CancelFlag:
    """A pattern's cancellation token, shared by every shard attempt."""

    __slots__ = ("_flag",)

    def __init__(self) -> None:
        self._flag = False

    def set(self) -> None:
        self._flag = True

    def is_set(self) -> bool:
        return self._flag


def default_shard_count(workers: int, graph: DataGraph) -> int:
    """Shards per run: oversubscribe ~4 per worker for balance slack."""
    return max(1, min(graph.num_vertices, max(1, workers) * 4))


@dataclass(frozen=True)
class ShardTask:
    """One attempt at one shard: everything a transport needs besides the
    (engine, graph) pair it runs on."""

    pattern: Pattern
    aggregation: Aggregation
    shard: Shard
    index: int
    attempt: int = 0
    faults: Any = None
    collect_spans: bool = False


def run_shard(
    engine: MiningEngine,
    graph: DataGraph,
    task: ShardTask,
    cancel,
    *,
    in_worker: bool = False,
    deadline=None,
):
    """Run one shard attempt; ``(value, stats, spans)``, or ``None``.

    Both transports run this. The shard's stats are isolated from the
    engine's; a shard whose ``cancel`` token is already set (a sibling
    saturated) returns its aggregation's zero without running; a
    :class:`~repro.testing.faults.FaultPlan` fires its pre-shard hook
    (a crash raises) and rewrites the value afterwards. ``None`` means
    an injected hang was released by the deadline or the cancel token:
    the shard has no result. ``spans`` are the shard's spans when it
    runs on a pool thread (``in_worker``) and ``task.collect_spans``
    asks for them: a worker records into its own tracer, which the
    caller adopts. Inline, the shard traces live through
    ``engine.tracer`` and ``spans`` is empty.
    """
    saved = engine.stats, engine.tracer
    engine.stats = EngineStats()
    if in_worker and task.collect_spans:
        engine.tracer = Tracer()
    try:
        if not cancel.is_set() and not _fault_aborts(task, cancel, deadline):
            with timed_span(engine.tracer, "shard", window=list(task.shard)):
                value, _terminal = engine.aggregate_partial(
                    graph,
                    task.pattern,
                    task.aggregation,
                    root_window=task.shard,
                    cancel=cancel,
                )
            if task.faults is not None:
                value = task.faults.transform_value(task.index, task.attempt, value)
        elif cancel.is_set():
            value = task.aggregation.zero()
        else:
            return None
        spans = engine.tracer.spans if in_worker and task.collect_spans else ()
        return value, engine.stats, spans
    finally:
        engine.stats, engine.tracer = saved


def _fault_aborts(task: ShardTask, cancel, deadline) -> bool:
    """Fire the task's pre-shard fault; whether an injected hang aborted it.

    A hang waits on the deadline, or on the cancel token the mapping
    loop sets when the deadline expires.
    """
    if task.faults is None:
        return False
    stop_check = None
    if deadline is not None:
        stop_check = lambda: cancel.is_set() or deadline.expired()  # noqa: E731
    return task.faults.apply_before_shard(task.index, task.attempt, stop_check=stop_check)


def _run_inline(engine, graph, task, cancel, deadline) -> Future:
    """Run one attempt on the calling thread; a finished future."""
    future: Future = Future()
    try:
        future.set_result(run_shard(engine, graph, task, cancel, deadline=deadline))
    except Exception as exc:  # noqa: BLE001 - the loop decides what is a crash
        future.set_exception(exc)
    return future


class ShardExecutor(ABC):
    """Transport for shard attempts: run one, get a future for its result.

    The mapping loop (:func:`repro.engines.recovery.map_shards`) owns
    everything else — rounds, retries, deadlines, checkpoints, the merge
    order. A transport owns one :class:`CancelFlag` per pattern, which
    the loop resets with :meth:`begin_pattern` and sets with
    :meth:`cancel`; a saturating shard sets it from the inside.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, workers)
        self._cancel = CancelFlag()

    @abstractmethod
    def submit(
        self, engine: MiningEngine, graph: DataGraph, task: ShardTask, deadline=None
    ) -> Future:
        """Start one shard attempt; the future resolves to :func:`run_shard`'s
        result or raises what the attempt raised."""

    def begin_pattern(self) -> None:
        """A fresh cancellation token for a pattern's shards.

        A new flag rather than a cleared one: a shard of the previous
        pattern still winding down keeps its own, set, flag.
        """
        self._cancel = CancelFlag()

    def cancel(self) -> None:
        """Set the cancellation token: outstanding shards stop polling."""
        self._cancel.set()

    def prepare(self, engine: MiningEngine, graph: DataGraph) -> None:
        """Eagerly stand up worker resources for an (engine, graph) run.

        Optional: a transport that starts its workers lazily would
        otherwise hide their spin-up inside the first pattern's match
        time. Errors degrade with a warning instead of raising.
        """

    def close(self) -> None:
        """Release worker resources (no-op for the inline transport)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialShardExecutor(ShardExecutor):
    """In-process sharded execution: identical split/merge, no threads.

    ``submit`` runs the attempt inline and hands back a finished future.
    """

    def submit(self, engine, graph, task, deadline=None):
        return _run_inline(engine, graph, task, self._cancel, deadline)


class ThreadShardExecutor(ShardExecutor):
    """Worker-thread transport over ``ThreadPoolExecutor``.

    Every pool thread runs its shards on the caller's graph and on its
    own copy of the caller's engine — the state
    :meth:`MiningEngine.__getstate__` defines for a worker: no tracer,
    no progress reporter, not busy — made once per thread and pattern.
    So no engine instance runs two shards at once, and the caller's
    engine runs none. A :class:`MorphingSession` reuses one pool across
    every pattern of a run. If the platform refuses to start a thread,
    the executor degrades for good to running attempts inline, with one
    ``RuntimeWarning``.
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError("thread execution needs at least 2 workers")
        super().__init__(workers)
        self._pool: ThreadPoolExecutor | None = None
        self._copies = threading.local()
        self._degraded = False

    def prepare(self, engine: MiningEngine, graph: DataGraph) -> None:
        """Start the pool's threads now, so their start is not match time."""
        if self._degraded:
            return
        try:
            pool = self._ensure_pool()
            for future in [pool.submit(int) for _ in range(self.workers)]:
                future.result()
        except RuntimeError as exc:  # no thread could be started
            self._degrade(exc)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                self.workers, thread_name_prefix="repro-shard"
            )
        return self._pool

    def _degrade(self, exc: BaseException) -> None:
        """The one fall back to inline execution, for good."""
        warnings.warn(
            f"shard threads unavailable ({exc!r}); "
            "falling back to in-process sharded execution",
            RuntimeWarning,
            stacklevel=3,
        )
        self.close()
        self._degraded = True

    def submit(self, engine, graph, task, deadline=None):
        if not self._degraded:
            try:
                return self._ensure_pool().submit(
                    self._run, engine, graph, task, self._cancel, deadline
                )
            except RuntimeError as exc:  # no thread could be started
                self._degrade(exc)
        return _run_inline(engine, graph, task, self._cancel, deadline)

    def _run(self, engine, graph, task, cancel, deadline):
        """One attempt on a pool thread, on that thread's engine copy.

        A copy serves one (engine, pattern) pair — the pattern's cancel
        flag names it — so it always carries the engine's current
        settings (``batch_roots`` changes between runs).
        """
        copies = self._copies
        key = getattr(copies, "key", None)
        if key is None or key[0] is not engine or key[1] is not cancel:
            copies.key, copies.engine = (engine, cancel), copy.deepcopy(engine)
        return run_shard(
            copies.engine, graph, task, cancel, in_worker=True, deadline=deadline
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


def make_executor(workers: int, executor=None) -> ShardExecutor:
    """Resolve an executor spec: an instance, ``"serial"``, or ``None``.

    ``None`` gives the thread pool for ``workers >= 2`` and the inline
    transport otherwise.
    """
    if isinstance(executor, ShardExecutor):
        return executor
    if executor == "serial":
        return SerialShardExecutor(workers)
    if executor is None:
        if workers <= 1:
            return SerialShardExecutor(workers)
        return ThreadShardExecutor(workers)
    raise ValueError(
        f"unknown executor {executor!r}: use 'serial', None, "
        "or a ShardExecutor instance"
    )


def export_graph(graph: DataGraph) -> None:
    """Always ``None``: graphs are no longer exported anywhere.

    Kept only for the frozen ``benchmarks/morphbench/layers.py``
    (``probe_export``), which reads ``None`` as "export unavailable".
    Delete with that caller (ROADMAP item 1 (e)).
    """
    return None


def assert_no_leaked_segments() -> None:
    """Returns at once: nothing creates a shared-memory segment any more.

    Kept only for the frozen ``benchmarks/morphbench/daemon.py``, which
    calls it after its daemon stops. Delete with that caller (ROADMAP
    item 1 (e)).
    """


def run_sharded(
    engine: MiningEngine,
    graph: DataGraph,
    pattern: Pattern,
    aggregation: Aggregation,
    executor: ShardExecutor,
    num_shards: int | None = None,
    tracer=None,
    control=None,
):
    """One pattern, sharded: split, fan out, merge in shard order.

    The shards run the engine's compiled pair
    (:meth:`~repro.engines.base.MiningEngine.compile_aggregate`). Per-shard
    stats merge into ``engine.stats`` (so the engine's counters reflect
    the whole run, exactly like the serial path) and the merged value is
    finalized once — :meth:`Aggregation.finalize` must see the complete
    value, e.g. MNI's automorphism closure over the full table, or a
    decomposed count's single ``// |Aut(p)|``.

    Every sharded run maps its shards through the one loop,
    :func:`repro.engines.recovery.map_shards`, under ``control`` (a
    :class:`~repro.engines.recovery.RunControl`; a default one — retry
    on worker crashes, no deadline, no checkpoint — when ``None``).
    With a ``tracer``, a pool thread's spans are adopted (re-parented
    and clamped) under the tracer's current span; inline shards trace
    live. With a deadline the merge covers
    only completed shards (still in ascending shard order, so the
    partial value is deterministic); the caller reads
    ``control.reports[-1]`` to learn whether the pattern completed.
    """
    from repro.engines.recovery import RunControl, map_shards

    pattern, aggregation = engine.compile_aggregate(graph, pattern, aggregation)
    shards = shard_by_degree_prefix(
        graph, num_shards or default_shard_count(executor.workers, graph)
    )
    results = map_shards(
        executor,
        engine,
        graph,
        pattern,
        aggregation,
        shards,
        control=control or RunControl(),
        tracer=tracer,
    )
    value = aggregation.zero()
    for index in sorted(results):
        part_value, part_stats = results[index]
        engine.stats.merge(part_stats)
        value = aggregation.merge(value, part_value)
    return aggregation.finalize(pattern, value)
