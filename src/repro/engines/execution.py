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

Two executors implement the transport:

* :class:`SerialShardExecutor` — in-process, shard-at-a-time. The
  default/fallback: the same split/merge code path with zero new
  failure modes, used by the differential tests to pin the parallel
  semantics to the serial kernel.
* :class:`ProcessShardExecutor` — ``concurrent.futures``
  ``ProcessPoolExecutor`` workers. The engine ships to each worker once
  (pool initializer); the graph's flat CSR arrays are published to one
  ``multiprocessing.shared_memory`` segment that every worker attaches
  to **zero-copy** (:class:`SharedGraphPayload`), with a transparent
  fallback to pickling the graph when shared memory is unavailable.
  Per-shard tasks carry only the pattern, aggregation and window.

Early termination (``StopExploration`` / saturating aggregations such as
existence probes) propagates across shards through a shared cancellation
token: the shard that saturates sets the flag, kernels poll it once per
root candidate, and unstarted shards return their aggregation's zero.
"""

from __future__ import annotations

import atexit
import itertools
import os
import warnings
import weakref
from abc import ABC, abstractmethod
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Sequence

from repro.core.aggregation import Aggregation
from repro.core.pattern import Pattern
from repro.engines.base import EngineStats, MiningEngine
from repro.errors import SharedMemoryLeakError
from repro.graph.datagraph import DataGraph
from repro.graph.partition import shard_by_degree_prefix
from repro.observe.tracer import timed_span

Shard = tuple[int, int]
#: One shard's outcome: (un-finalized aggregation value, shard stats),
#: extended to (value, stats, spans) when span collection is requested
#: (``map_shards(collect_spans=True)``) and the transport crosses a
#: process boundary — in-process executors record into the live tracer
#: directly and keep the two-tuple shape.
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


class ShardExecutor(ABC):
    """Transport for running shard tasks and collecting ordered results."""

    workers: int = 1
    #: Wall seconds spent standing the transport up (pool fork, graph
    #: export) and tearing it down. In-process executors have none;
    #: sessions add both to ``MorphRunResult.executor_seconds`` so
    #: parallel totals include the fixed cost serial runs never pay.
    setup_seconds: float = 0.0
    teardown_seconds: float = 0.0

    @abstractmethod
    def map_shards(
        self,
        engine: MiningEngine,
        graph: DataGraph,
        pattern: Pattern,
        aggregation: Aggregation,
        shards: Sequence[Shard],
        collect_spans: bool = False,
    ) -> list[ShardResult]:
        """Run every shard; results are returned in shard order.

        ``collect_spans`` asks cross-process transports to trace each
        shard into a fresh worker-side tracer and return the spans as a
        third tuple element for the caller to adopt; in-process
        transports ignore it (their kernels already record into the
        live tracer through ``engine.tracer``).
        """

    def prepare(self, engine: MiningEngine, graph: DataGraph) -> None:
        """Eagerly stand up worker resources for an (engine, graph) run.

        Optional: transports that bind lazily inside ``map_shards``
        would otherwise hide their spin-up cost inside the first
        pattern's match time. Errors degrade with a warning instead of
        raising — ``map_shards`` owns the degradation path.
        """

    def close(self) -> None:
        """Release worker resources (no-op for in-process executors)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialShardExecutor(ShardExecutor):
    """In-process sharded execution: identical split/merge, no processes."""

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, workers)

    def map_shards(
        self, engine, graph, pattern, aggregation, shards, collect_spans=False
    ):
        # In-process execution records spans straight into the live
        # tracer (engine.tracer), so collect_spans needs no special
        # handling here beyond the per-shard grouping span.
        tracer = getattr(engine, "tracer", None)
        cancel = CancelFlag()
        results: list[ShardResult] = []
        saved_stats = engine.stats
        try:
            for shard in shards:
                engine.stats = EngineStats()
                if not cancel.is_set():
                    with timed_span(tracer, "shard", window=list(shard)):
                        value, _terminal = engine.aggregate_partial(
                            graph,
                            pattern,
                            aggregation,
                            root_window=shard,
                            cancel=cancel,
                        )
                else:
                    value = aggregation.zero()
                results.append((value, engine.stats))
        finally:
            engine.stats = saved_stats
        return results


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


def _run_shard_task(
    pattern,
    aggregation,
    shard,
    collect_spans=False,
    shard_index=None,
    attempt=0,
    faults=None,
):
    assert _WORKER_STATE is not None, "worker pool not initialized"
    engine, graph, cancel = _WORKER_STATE
    engine.reset_stats()
    if cancel is not None and cancel.is_set():
        if collect_spans:
            return aggregation.zero(), engine.stats, []
        return aggregation.zero(), engine.stats
    if faults is not None and shard_index is not None:
        # Injected faults (tests only): a crash os._exit()s right here, a
        # hang polls the shared cancel event and, once released, reports
        # zero exactly like a saturation-cancelled shard.
        stop_check = cancel.is_set if cancel is not None else None
        if faults.apply_before_shard(
            shard_index, attempt, in_worker=True, stop_check=stop_check
        ):
            if collect_spans:
                return aggregation.zero(), engine.stats, []
            return aggregation.zero(), engine.stats
    if not collect_spans:
        value, _terminal = engine.aggregate_partial(
            graph, pattern, aggregation, root_window=shard, cancel=cancel
        )
        if faults is not None and shard_index is not None:
            value = faults.transform_value(shard_index, attempt, value)
        return value, engine.stats
    # Trace this shard into a private tracer and ship the spans home;
    # the parent adopts them under its per-item span (clamped into the
    # parent window, so nesting survives any cross-process clock skew).
    from repro.observe.tracer import Tracer

    tracer = Tracer()
    engine.tracer = tracer
    try:
        with tracer.span("shard", window=list(shard)):
            value, _terminal = engine.aggregate_partial(
                graph, pattern, aggregation, root_window=shard, cancel=cancel
            )
    finally:
        engine.tracer = None
    if faults is not None and shard_index is not None:
        value = faults.transform_value(shard_index, attempt, value)
    return value, engine.stats, tracer.spans


def _warm_worker() -> bool:
    """No-op task: forces worker spawn + initializer before timing starts."""
    return _WORKER_STATE is not None


class ProcessShardExecutor(ShardExecutor):
    """Worker-process transport over ``ProcessPoolExecutor``.

    The pool binds to one (engine, graph) pair at first use and is
    rebuilt if either changes; a :class:`MorphingSession` therefore
    reuses one warm pool across every pattern of a run. The graph ships
    to workers through a :class:`SharedGraphPayload` — one shared-memory
    copy of the CSR arrays that every worker attaches to zero-copy —
    falling back to pickling the whole graph where shared memory is
    unavailable. If the platform refuses to start worker processes
    (restricted sandboxes), execution degrades to
    :class:`SerialShardExecutor` transparently.
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
        here instead. Failures degrade, not raise — ``map_shards`` owns
        the serial-fallback path — but they are warned about, never
        silently swallowed.
        """
        import time

        start = time.perf_counter()
        try:
            self._ensure_pool(engine, graph)
            self._pool.submit(_warm_worker).result()
        except (OSError, BrokenProcessPool, ImportError, RuntimeError) as exc:
            warnings.warn(
                f"process pool warm-up failed ({exc!r}); execution will "
                "fall back to in-process sharding",
                RuntimeWarning,
                stacklevel=2,
            )
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

    def map_shards(
        self, engine, graph, pattern, aggregation, shards, collect_spans=False
    ):
        if self._fallback is not None:
            return self._fallback.map_shards(
                engine, graph, pattern, aggregation, shards, collect_spans
            )
        try:
            self._ensure_pool(engine, graph)
            self._event.clear()
            futures = [
                self._pool.submit(
                    _run_shard_task, pattern, aggregation, shard, collect_spans
                )
                for shard in shards
            ]
            return [f.result() for f in futures]
        except (OSError, BrokenProcessPool, ImportError) as exc:
            # Restricted environments (no /dev/shm, no fork permission):
            # degrade to in-process sharding — identical results, no pool.
            warnings.warn(
                f"process pool unavailable ({exc!r}); "
                "falling back to in-process sharded execution",
                RuntimeWarning,
                stacklevel=2,
            )
            self.close()
            self._fallback = SerialShardExecutor(self.workers)
            return self._fallback.map_shards(
                engine, graph, pattern, aggregation, shards, collect_spans
            )

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

    With a ``tracer``, cross-process transports return each shard's
    worker-side spans, which are adopted (re-parented and clamped)
    under the tracer's current span; in-process transports trace live.

    ``control`` (a :class:`repro.engines.recovery.RunControl`) routes
    the shards through the fault-tolerant mapping instead: retries,
    deadline cancellation, checkpoint skip/journal. With a deadline the
    merge covers only completed shards (still in ascending shard order,
    so the partial value is deterministic); the caller reads
    ``control.reports[-1]`` to learn whether the pattern completed.
    """
    pattern, aggregation = engine.compile_aggregate(graph, pattern, aggregation)
    shards = shard_by_degree_prefix(
        graph, num_shards or default_shard_count(executor.workers, graph)
    )
    if control is not None:
        from repro.engines.recovery import map_shards_recovering

        indexed, _report = map_shards_recovering(
            executor,
            engine,
            graph,
            pattern,
            aggregation,
            shards,
            tracer=tracer,
            control=control,
            collect_spans=tracer is not None,
        )
        parts = [indexed[index] for index in sorted(indexed)]
    else:
        parts = executor.map_shards(
            engine, graph, pattern, aggregation, shards, tracer is not None
        )
    value = aggregation.zero()
    for part in parts:
        part_value, part_stats = part[0], part[1]
        if len(part) > 2 and tracer is not None:
            tracer.adopt(part[2])
        engine.stats.merge(part_stats)
        value = aggregation.merge(value, part_value)
    return aggregation.finalize(pattern, value)


def execute_sharded(
    engine: MiningEngine,
    graph: DataGraph,
    pattern: Pattern,
    aggregation: Aggregation,
    *,
    workers: int = 1,
    num_shards: int | None = None,
    executor=None,
):
    """Entry point behind :meth:`MiningEngine.run`'s parallel path.

    Owns the executor's lifetime unless the caller passed an instance in
    (then the caller keeps the warm pool).
    """
    owned = not isinstance(executor, ShardExecutor)
    resolved = make_executor(workers, executor)
    try:
        return run_sharded(
            engine,
            graph,
            pattern,
            aggregation,
            resolved,
            num_shards=num_shards,
            tracer=getattr(engine, "tracer", None),
        )
    finally:
        if owned:
            resolved.close()
