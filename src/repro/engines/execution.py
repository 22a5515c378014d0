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
sharded run's shards: rounds, retries, deadlines, checkpoints and the
in-process fallback live there, once. This module holds what the loop
drives: :func:`run_shard`, the one function that runs one shard attempt
(in a pool worker, in the serial transport and in the last-resort
fallback alike), and two transports whose only job is to ``submit`` it:

* :class:`SerialShardExecutor` — in-process; runs the attempt inline.
  The default/fallback: the same split/merge code path with zero new
  failure modes, used by the differential tests to pin the parallel
  semantics to the serial kernel.
* :class:`ProcessShardExecutor` — ``concurrent.futures``
  ``ProcessPoolExecutor`` workers. The engine ships to each worker once
  (pool initializer); the graph's flat CSR arrays are published to one
  ``multiprocessing.shared_memory`` segment that every worker attaches
  to **zero-copy** (:class:`SharedGraphPayload`), with a transparent
  fallback to pickling the graph when shared memory is unavailable.
  Per-shard tasks (:class:`ShardTask`) carry only the pattern,
  aggregation, window and attempt. A pool that cannot start degrades,
  for good, to the serial transport.

Early termination (``StopExploration`` / saturating aggregations such as
existence probes) propagates across shards through each transport's
per-pattern cancellation token (a :class:`CancelFlag` in-process, the
pool's shared event): the shard that saturates sets it, kernels poll it
once per root candidate, and unstarted shards return their
aggregation's zero.
"""

from __future__ import annotations

import atexit
import itertools
import os
import warnings
import weakref
from abc import ABC, abstractmethod
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from repro.core.aggregation import Aggregation
from repro.core.pattern import Pattern
from repro.engines.base import EngineStats, MiningEngine
from repro.errors import SharedMemoryLeakError
from repro.graph.datagraph import DataGraph
from repro.graph.partition import shard_by_degree_prefix
from repro.observe.tracer import Tracer, timed_span

Shard = tuple[int, int]
#: One completed shard: (un-finalized aggregation value, shard stats).
ShardResult = tuple[Any, EngineStats]


class CancelFlag:
    """In-process cancellation token (the serial analogue of ``mp.Event``)."""

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
    """One attempt at one shard: everything a worker needs besides the
    (engine, graph) pair its pool was built for."""

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

    The pool worker, the serial transport and the last-resort in-process
    fallback all run this. The shard's stats are isolated from the
    engine's; a shard whose ``cancel`` token is already set (a sibling
    saturated) returns its aggregation's zero without running; a
    :class:`~repro.testing.faults.FaultPlan` fires its pre-shard hook
    (a crash kills a worker with ``os._exit`` and raises in-process) and
    rewrites the value afterwards. ``None`` means an injected hang was
    released by the deadline: the shard has no result. ``spans`` are the
    shard's worker-side spans when ``task.collect_spans`` asks for them
    across a process boundary; in-process, the shard traces live
    through ``engine.tracer`` and ``spans`` is empty.
    """
    saved = engine.stats, engine.tracer
    engine.stats = EngineStats()
    if in_worker and task.collect_spans:
        engine.tracer = Tracer()
    try:
        if not cancel.is_set() and not _fault_aborts(task, cancel, in_worker, deadline):
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


def _fault_aborts(task: ShardTask, cancel, in_worker: bool, deadline) -> bool:
    """Fire the task's pre-shard fault; whether an injected hang aborted it.

    A worker's hang waits on the pool's cancel event (which the parent
    sets when the deadline expires); in-process, on the deadline itself.
    """
    if task.faults is None:
        return False
    if in_worker:
        stop_check = cancel.is_set
    elif deadline is not None:
        stop_check = lambda: cancel.is_set() or deadline.expired()  # noqa: E731
    else:
        stop_check = None
    return task.faults.apply_before_shard(
        task.index, task.attempt, in_worker=in_worker, stop_check=stop_check
    )


class ShardExecutor(ABC):
    """Transport for shard attempts: run one, get a future for its result.

    The mapping loop (:func:`repro.engines.recovery.map_shards`) owns
    everything else — rounds, retries, deadlines, checkpoints, the merge
    order. A transport owns one cancellation token per pattern, which
    the loop resets with :meth:`begin_pattern` and sets with
    :meth:`cancel`; a saturating shard sets it from the inside.
    """

    workers: int = 1
    #: Wall seconds spent standing the transport up (pool fork, graph
    #: export) and tearing it down. In-process executors have none;
    #: sessions add both to ``MorphRunResult.executor_seconds`` so
    #: parallel totals include the fixed cost serial runs never pay.
    setup_seconds: float = 0.0
    teardown_seconds: float = 0.0

    @abstractmethod
    def submit(
        self, engine: MiningEngine, graph: DataGraph, task: ShardTask, deadline=None
    ) -> Future:
        """Start one shard attempt; the future resolves to :func:`run_shard`'s
        result or raises what the attempt raised (a crashed pool worker:
        ``BrokenProcessPool``)."""

    @abstractmethod
    def begin_pattern(self) -> None:
        """Clear the cancellation token before a pattern's first shard."""

    @abstractmethod
    def cancel(self) -> None:
        """Set the cancellation token: outstanding shards stop polling."""

    def prepare(self, engine: MiningEngine, graph: DataGraph) -> None:
        """Eagerly stand up worker resources for an (engine, graph) run.

        Optional: transports that bind lazily inside ``submit`` would
        otherwise hide their spin-up cost inside the first pattern's
        match time. Errors degrade with a warning instead of raising.
        """

    def close(self) -> None:
        """Release worker resources (no-op for in-process executors)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialShardExecutor(ShardExecutor):
    """In-process sharded execution: identical split/merge, no processes.

    ``submit`` runs the attempt inline and hands back a finished future.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, workers)
        self._cancel = CancelFlag()

    def submit(self, engine, graph, task, deadline=None):
        future: Future = Future()
        try:
            future.set_result(
                run_shard(engine, graph, task, self._cancel, deadline=deadline)
            )
        except Exception as exc:  # noqa: BLE001 - the loop decides what is a crash
            future.set_exception(exc)
        return future

    def begin_pattern(self) -> None:
        self._cancel = CancelFlag()

    def cancel(self) -> None:
        self._cancel.set()


# -- zero-copy graph transport ------------------------------------------------

#: Owner-side registry of live shared-memory segments: name -> graph name.
#: Every exported segment registers here and leaves on dispose; the leak
#: probe (:func:`assert_no_leaked_segments`) and the atexit sweep read it.
_LIVE_SEGMENTS: dict[str, str] = {}

#: Segment-name prefix: ``repro-shm-<owner pid>-<seq>-<suffix>``. The pid
#: in the name is what lets a *fresh* daemon incarnation recognize (and
#: reclaim) segments a SIGKILLed predecessor never got to unlink — the
#: atexit/finalizer sweeps only run when the owner dies politely.
_SEGMENT_PREFIX = "repro-shm"
_SEGMENT_SEQ = itertools.count()


def _create_named_segment(size: int):
    """A fresh shared-memory segment named so its owner pid is recoverable."""
    from multiprocessing import shared_memory

    for _ in range(16):
        name = (
            f"{_SEGMENT_PREFIX}-{os.getpid()}-{next(_SEGMENT_SEQ)}"
            f"-{os.urandom(3).hex()}"
        )
        try:
            return shared_memory.SharedMemory(create=True, size=size, name=name)
        except FileExistsError:  # pragma: no cover - 24 random bits collided
            continue
    # Give up on naming; an anonymous segment still works (it just cannot
    # be swept by a successor process).
    return shared_memory.SharedMemory(create=True, size=size)  # pragma: no cover


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for another process's pid."""
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError, ValueError):
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True  # unknown: err on the safe side, do not reclaim
    return True


def sweep_stale_segments() -> tuple[str, ...]:
    """Unlink ``repro-shm`` segments whose owning process is dead.

    A SIGKILLed daemon leaves its exported CSR segments behind (no
    atexit, no finalizers); a successor daemon calls this at start-up to
    reclaim them. Only segments following the
    ``repro-shm-<pid>-...`` naming convention whose pid no longer exists
    are touched — live owners (including this process) are never raced.
    Returns the swept segment names; POSIX-only (``/dev/shm``), a no-op
    elsewhere.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return ()
    from multiprocessing import shared_memory

    swept: list[str] = []
    try:
        entries = sorted(os.listdir(shm_dir))
    except OSError:
        return ()
    for name in entries:
        if not name.startswith(_SEGMENT_PREFIX + "-"):
            continue
        parts = name.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            segment = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            continue
        try:
            # Attaching registered the segment with our resource tracker;
            # unregister so the tracker does not warn about the segment we
            # are about to unlink on purpose (same dance as attach()).
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
        except (ImportError, AttributeError, KeyError, ValueError, OSError):
            pass
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - raced
            continue
        swept.append(name)
    if swept:
        warnings.warn(
            f"reclaimed {len(swept)} stale shared-memory segment(s) from "
            f"dead process(es): {', '.join(swept)}",
            RuntimeWarning,
            stacklevel=2,
        )
    return tuple(swept)


def _cleanup_segment(name: str) -> None:
    """Best-effort unlink of one registered segment (finalizer/atexit path)."""
    if _LIVE_SEGMENTS.pop(name, None) is None:
        return
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name)
        segment.close()
        segment.unlink()
    except (FileNotFoundError, OSError):
        pass


@atexit.register
def _cleanup_all_segments() -> None:
    """Interpreter-exit sweep: no segment survives the owning process."""
    for name in list(_LIVE_SEGMENTS):
        _cleanup_segment(name)


def live_shared_segments() -> tuple[str, ...]:
    """Names of shared-memory segments this process currently owns."""
    return tuple(sorted(_LIVE_SEGMENTS))


def assert_no_leaked_segments() -> None:
    """Fail loudly if any exported segment outlived its executor.

    Raises :class:`repro.errors.SharedMemoryLeakError` naming the leaked
    segments — and reclaims them, so one offender does not cascade into
    every later check. The test suite runs this after every test.
    """
    leaked = live_shared_segments()
    if not leaked:
        return
    owners = [f"{name} (graph {_LIVE_SEGMENTS.get(name, '?')!r})" for name in leaked]
    for name in leaked:
        _cleanup_segment(name)
    raise SharedMemoryLeakError(
        "shared-memory segment(s) outlived their executor: " + ", ".join(owners),
        segments=leaked,
    )


class SharedGraphPayload:
    """Picklable handle that rebuilds a :class:`DataGraph` from shared memory.

    :meth:`export` copies the graph's flat CSR arrays (``indptr``,
    ``indices``, optional ``labels``) into one
    ``multiprocessing.shared_memory`` segment — once, in the parent.
    The payload itself carries only the segment name plus array
    metadata, so shipping it to a worker costs a few hundred bytes;
    :meth:`attach` maps the segment and wraps the arrays **zero-copy**
    (``DataGraph.from_csr`` adopts the buffers without touching the
    edge data). The parent owns the segment and must call
    :meth:`dispose` when the pool shuts down.
    """

    def __init__(
        self,
        shm_name: str,
        num_vertices: int,
        graph_name: str,
        blocks: dict[str, tuple[int, tuple[int, ...], str]],
        num_dropped_self_loops: int = 0,
        num_duplicate_edges: int = 0,
        tracker_pid: int | None = None,
    ) -> None:
        self.shm_name = shm_name
        self.num_vertices = num_vertices
        self.graph_name = graph_name
        #: field -> (byte offset, shape, dtype string) inside the segment.
        self.blocks = blocks
        self.num_dropped_self_loops = num_dropped_self_loops
        self.num_duplicate_edges = num_duplicate_edges
        #: pid of the owner's resource-tracker daemon (see ``attach``).
        self.tracker_pid = tracker_pid
        self._shm = None  # owner-side handle; never pickled
        self._finalizer = None  # owner-side GC safety net; never pickled

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_shm"] = None
        state["_finalizer"] = None
        return state

    @classmethod
    def export(cls, graph: DataGraph) -> "SharedGraphPayload":
        """Copy a graph's CSR arrays into one shared-memory segment."""
        from multiprocessing import shared_memory

        import numpy as np

        arrays = {"indptr": graph.indptr, "indices": graph.indices}
        if graph.labels is not None:
            arrays["labels"] = graph.labels
        total = sum(a.nbytes for a in arrays.values())
        shm = _create_named_segment(max(total, 1))
        blocks: dict[str, tuple[int, tuple[int, ...], str]] = {}
        offset = 0
        for name, arr in arrays.items():
            target = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset)
            target[...] = arr
            blocks[name] = (offset, arr.shape, arr.dtype.str)
            offset += arr.nbytes
        payload = cls(
            shm.name,
            graph.num_vertices,
            graph.name,
            blocks,
            num_dropped_self_loops=graph.num_dropped_self_loops,
            num_duplicate_edges=graph.num_duplicate_edges,
            tracker_pid=_resource_tracker_pid(),
        )
        payload._shm = shm
        # Three nested safety nets guarantee the segment dies with its
        # owner: explicit dispose() (normal path), a GC finalizer (payload
        # dropped without dispose), and the atexit sweep (process exits
        # with payloads still alive).
        _LIVE_SEGMENTS[shm.name] = graph.name
        payload._finalizer = weakref.finalize(payload, _cleanup_segment, shm.name)
        return payload

    def attach(self) -> DataGraph:
        """Map the segment and wrap it as a graph without copying."""
        from multiprocessing import shared_memory

        import numpy as np

        shm = shared_memory.SharedMemory(name=self.shm_name)
        try:
            # Attaching registers the segment with a resource tracker,
            # which would unlink it when the tracked process set exits;
            # the parent owns the lifetime, so undo it — but only when
            # this process runs its *own* tracker (spawn). Fork workers
            # share the owner's tracker daemon, where the register was a
            # set-add no-op; unregistering there would strip the owner's
            # own registration and make its later unlink double-free.
            from multiprocessing import resource_tracker

            pid = _resource_tracker_pid()
            if pid is not None and pid != self.tracker_pid:
                resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
        except (ImportError, AttributeError, KeyError, ValueError, OSError) as exc:
            # Tracker internals vary by Python version; failing to
            # unregister only risks an early unlink warning at worker
            # exit, never corruption — but it is worth knowing about.
            warnings.warn(
                f"could not adjust resource tracker for segment "
                f"{self.shm_name}: {exc!r}",
                RuntimeWarning,
                stacklevel=2,
            )

        def view(field: str) -> np.ndarray:
            offset, shape, dtype = self.blocks[field]
            arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
            arr.flags.writeable = False
            return arr

        graph = DataGraph.from_csr(
            self.num_vertices,
            view("indptr"),
            view("indices"),
            labels=view("labels") if "labels" in self.blocks else None,
            name=self.graph_name,
            num_dropped_self_loops=self.num_dropped_self_loops,
            num_duplicate_edges=self.num_duplicate_edges,
            validate=False,
        )
        # Keep the mapping alive for as long as the graph is, and make
        # the transport introspectable (tests assert zero-copy attach).
        graph._shm = shm  # type: ignore[attr-defined]
        graph.csr_transport = "shared_memory"  # type: ignore[attr-defined]
        return graph

    def dispose(self) -> None:
        """Owner-side cleanup: close and unlink the segment (idempotent)."""
        from multiprocessing import shared_memory

        _LIVE_SEGMENTS.pop(self.shm_name, None)
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        shm = self._shm
        if shm is None:  # disposed from a non-owner copy: open by name
            try:
                shm = shared_memory.SharedMemory(name=self.shm_name)
            except FileNotFoundError:
                return
        self._shm = None
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedGraphPayload":
        return self

    def __exit__(self, *exc_info) -> None:
        self.dispose()


def _resource_tracker_pid() -> int | None:
    """Pid of this process's resource-tracker daemon, if one is running."""
    try:
        from multiprocessing import resource_tracker

        return getattr(resource_tracker._resource_tracker, "_pid", None)
    except (ImportError, AttributeError, OSError):
        # No tracker daemon on this platform/build: a normal condition
        # (attach() then skips the unregister dance), not a failure.
        return None


def export_graph(graph: DataGraph):
    """Best-effort shared-memory export; ``None`` when unavailable.

    Restricted sandboxes can lack ``/dev/shm`` or forbid segment
    creation — then the pool falls back to pickling the graph into each
    worker (the pre-shared-memory transport), which is slower but
    identical in behavior.
    """
    try:
        return SharedGraphPayload.export(graph)
    except (OSError, PermissionError, ImportError, MemoryError, ValueError) as exc:
        warnings.warn(
            f"shared-memory export unavailable ({exc!r}); workers will "
            "receive a pickled copy of the graph instead",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


# -- process-pool transport --------------------------------------------------

#: Per-worker state installed by the pool initializer: (engine, graph,
#: shared cancellation event). Worker processes handle one task at a
#: time, so reusing one engine instance per worker is race-free and lets
#: plan/order caches warm across shards.
_WORKER_STATE: tuple | None = None


def _init_shard_worker(engine, graph, cancel) -> None:
    global _WORKER_STATE
    if isinstance(graph, SharedGraphPayload):
        graph = graph.attach()
    _WORKER_STATE = (engine, graph, cancel)


def _probe_worker_graph() -> dict:
    """Introspection task: how did this worker receive the graph?

    Used by the transport tests to assert that pool workers *attached*
    to the parent's CSR buffers instead of unpickling a copy.
    """
    assert _WORKER_STATE is not None, "worker pool not initialized"
    _engine, graph, _cancel = _WORKER_STATE
    return {
        "transport": getattr(graph, "csr_transport", "pickle"),
        "indices_writeable": bool(graph.indices.flags.writeable),
        "num_edges": graph.num_edges,
    }


def _run_shard_task(task: ShardTask):
    assert _WORKER_STATE is not None, "worker pool not initialized"
    engine, graph, cancel = _WORKER_STATE
    return run_shard(engine, graph, task, cancel, in_worker=True)


def _warm_worker() -> bool:
    """No-op task: forces worker spawn + initializer before timing starts."""
    return _WORKER_STATE is not None


class ProcessShardExecutor(ShardExecutor):
    """Worker-process transport over ``ProcessPoolExecutor``.

    The pool binds to one (engine, graph) pair at first use and is
    rebuilt if either changes — or after :meth:`close`, which is how the
    mapping loop replaces a pool a crashed worker broke. A
    :class:`MorphingSession` therefore reuses one warm pool across every
    pattern of a run. The graph ships to workers through a
    :class:`SharedGraphPayload` — one shared-memory copy of the CSR
    arrays that every worker attaches to zero-copy — falling back to
    pickling the whole graph where shared memory is unavailable. If the
    platform refuses to start worker processes (restricted sandboxes),
    the executor degrades for good to :class:`SerialShardExecutor`, with
    one ``RuntimeWarning``.
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError("process execution needs at least 2 workers")
        self.workers = workers
        self.setup_seconds = 0.0
        self.teardown_seconds = 0.0
        self._pool = None
        self._event = None
        self._payload: SharedGraphPayload | None = None
        #: ``(engine, graph fingerprint)`` the live pool serves. The
        #: engine is held, not its ``id``: a caller-supplied executor
        #: outlives a run, and a freed object's id is reused.
        self._bound_to: tuple[MiningEngine, str] | None = None
        self._fallback: SerialShardExecutor | None = None

    def prepare(self, engine: MiningEngine, graph: DataGraph) -> None:
        """Stand the pool up eagerly and account its spin-up time.

        ``ProcessPoolExecutor`` forks workers lazily on first submit, so
        without this the pool's fixed cost lands inside the first
        pattern's match window — the undercount that made morphed
        parallel totals look better than they were. A throwaway warm-up
        task forces worker spawn and the graph's shared-memory attach
        here instead. A pool that cannot start degrades, with a warning.
        """
        import time

        start = time.perf_counter()
        if self._fallback is None:
            try:
                self._ensure_pool(engine, graph)
                self._pool.submit(_warm_worker).result()
            except (OSError, BrokenProcessPool, ImportError, RuntimeError) as exc:
                self._degrade(exc)
        self.setup_seconds += time.perf_counter() - start

    def _ensure_pool(self, engine: MiningEngine, graph: DataGraph) -> None:
        bound = self._bound_to
        if (
            self._pool is not None
            and bound[0] is engine
            and bound[1] == graph.fingerprint
        ):
            return
        self.close()
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # platforms without fork
            ctx = mp.get_context()
        self._event = ctx.Event()
        self._payload = export_graph(graph)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=ctx,
            initializer=_init_shard_worker,
            initargs=(engine, self._payload if self._payload is not None else graph, self._event),
        )
        self._bound_to = (engine, graph.fingerprint)

    def _degrade(self, exc: BaseException) -> None:
        """The one fall back to in-process execution, for good."""
        warnings.warn(
            f"process pool unavailable ({exc!r}); "
            "falling back to in-process sharded execution",
            RuntimeWarning,
            stacklevel=3,
        )
        self.close()
        self._fallback = SerialShardExecutor(self.workers)

    def submit(self, engine, graph, task, deadline=None):
        if self._fallback is None:
            try:
                self._ensure_pool(engine, graph)
                return self._pool.submit(_run_shard_task, task)
            except BrokenProcessPool as exc:
                if self._pool is not None:
                    # A worker died while this round was still being
                    # submitted: this shard is one more casualty.
                    future: Future = Future()
                    future.set_exception(exc)
                    return future
                self._degrade(exc)
            except (OSError, ImportError) as exc:
                # Restricted environments (no /dev/shm, no fork permission).
                self._degrade(exc)
        return self._fallback.submit(engine, graph, task, deadline)

    def begin_pattern(self) -> None:
        if self._fallback is not None:
            self._fallback.begin_pattern()
        elif self._event is not None:
            self._event.clear()

    def cancel(self) -> None:
        if self._fallback is not None:
            self._fallback.cancel()
        elif self._event is not None:
            self._event.set()

    def close(self) -> None:
        import time

        start = time.perf_counter()
        had_resources = self._pool is not None or self._payload is not None
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._payload is not None:
            self._payload.dispose()
            self._payload = None
        self._event = None
        self._bound_to = None
        if had_resources:
            self.teardown_seconds += time.perf_counter() - start


def make_executor(workers: int, executor=None) -> ShardExecutor:
    """Resolve an executor spec: instance, ``"serial"``, or ``"process"``."""
    if isinstance(executor, ShardExecutor):
        return executor
    if executor == "serial":
        return SerialShardExecutor(workers)
    if executor in (None, "process"):
        if workers <= 1:
            return SerialShardExecutor(workers)
        return ProcessShardExecutor(workers)
    raise ValueError(
        f"unknown executor {executor!r}: use 'serial', 'process', "
        "or a ShardExecutor instance"
    )


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
    With a ``tracer``, a cross-process transport's worker-side spans are
    adopted (re-parented and clamped) under the tracer's current span;
    in-process transports trace live. With a deadline the merge covers
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

