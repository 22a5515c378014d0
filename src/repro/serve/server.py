"""The resident mining daemon: :class:`MiningServer`.

One process owns the expensive state — resident graphs, a warm
:class:`repro.PlanCache`, a :class:`repro.MeasurementCache`, and a
result cache — and answers queries over the JSON-lines protocol
(:mod:`.protocol`). A ``run`` request walks :data:`STAGES`, the one
declaration of its path, on the thread that read it: the :class:`.scheduler.QueryScheduler` (priority
ordering, per-client limits, deadline-aware admission) grants it one of
``workers`` execution slots, and the query then builds a *fresh* engine
(:func:`repro.resolve_engine` with ``fresh=True`` — engine instances
carry per-run mutable state and must never be shared across concurrent
runs).

Three cache layers, coarsest first:

1. **result cache** — answers keyed by (graph fingerprint, pattern
   texts, aggregation, engine, strategy, morph knobs), each encoded
   once (a :class:`~.protocol.Framed` entry); a hit is answered on the
   connection thread, before the scheduler, touches neither the queue
   nor the pipeline, and goes out as the entry's bytes with its
   ``cached`` and ``query_id`` fields spliced on;
2. **plan cache** — a result-cache miss still skips plan *search* when
   the same (graph, queries, engine, strategy) was planned before;
3. **measurement cache** — memoized alternative-set measurements
   shared across queries (keyed by graph fingerprint).

Each layer, the idempotency map and the socket handler's request memo
(a repeated ``run`` line is not decoded again) is a
:class:`repro.morph.cache.BoundedStore`: one bound rule, one lock and
one eviction counter per tier. Every layer reports into the server's
metrics registry (``serve.result_cache.*``, merged ``plan.cache.*``,
admission verdicts and queue depth from the scheduler), surfaced by
the ``stats`` op.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import socket
import socketserver
import tempfile
import threading
import time
import warnings
from typing import Any, Callable, NamedTuple

from repro.core.parser import format_pattern, parse_pattern
from repro.engines.recovery import Deadline
from repro.errors import UnservedOptionError, WorkerCrashError
from repro.morph.cache import BoundedStore, MeasurementCache, PlanCache
from repro.morph.profiles import profile_for
from repro.morph.session import MorphingSession, PartialRunResult
from repro.observe.export import RunTrace
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracer import Tracer
from repro.options import RunOptions
from repro.serve import protocol
from repro.serve.breaker import REJECTED_CIRCUIT_OPEN, BreakerBoard
from repro.serve.flightrecorder import FlightRecord, FlightRecorder
from repro.serve.registry import GraphRegistry
from repro.serve.scheduler import (
    ACCEPTED,
    REJECTED_DRAINING,
    AdmissionPolicy,
    Query,
    QueryScheduler,
)
from repro.serve.sentinel import SentinelBoard
from repro.serve.shed import ShedController
from repro.serve.state import load_service_state, save_service_state

__all__ = ["MiningServer", "STAGES", "Stage"]

#: Bound on the idempotency map (completed responses kept for replay).
#: The other tiers keep :data:`repro.morph.cache.STORE_CAPACITY`.
_IDEMPOTENCY_CAPACITY = 256

#: Metrics forwarded to clients in every run response (cache behavior
#: is part of the service contract, so clients can assert on it).
_RESPONSE_METRICS = ("plan.cache.hit", "plan.cache.miss")


#: The options of a request that sends none (``Client.run`` with
#: ``options=None``): parsed once, never looked up.
_DEFAULT_OPTIONS = RunOptions()

#: Longest request line (bytes, newline included) that
#: :meth:`MiningServer._read_request` keeps decoded: 24x ``serve-cold``'s
#: mean line, so a store of long distinct lines stays small.
_REQUEST_MEMO_LINE_BYTES = 4096


def _refuse_unserved(options: RunOptions) -> None:
    """Raise :class:`UnservedOptionError` for a wire option the daemon
    must not honour (see the error's docstring)."""
    for name in ("checkpoint", "trace", "progress"):
        if getattr(options, name) is not None:
            raise UnservedOptionError(f"option {name!r} is not served")
    if options.workers > 1 and options.workers > (os.cpu_count() or 1):
        raise UnservedOptionError("option 'workers' exceeds the daemon's CPUs")


def _cache_entry(answer: dict) -> protocol.Framed:
    """A result-cache entry: ``answer`` without its per-query fields,
    encoded once, in the form the drain journal keeps, so a hit reads
    byte for byte the same before a drain and after the resume."""
    return protocol.framed(
        {k: v for k, v in answer.items() if k not in ("cached", "query_id")}
    )


class Stage(NamedTuple):
    """One named step of a served ``run`` (see :data:`STAGES`).

    ``run(server, query)`` returns the query's response when the stage
    answers it, ``None`` to hand it on, raises :class:`_Declined` to
    refuse or replay it, and raises anything else to fail it.
    """

    name: str
    run: Callable[["MiningServer", Query], dict | None]


class _Declined(Exception):
    """A stage's answer to a request it does not serve: a refusal, or
    an idempotent replay. It ends the walk with ``response``, leaving no
    flight record and no latency sample, unless ``recorded`` (a query
    refused after it queued, like every query that waited for a slot)."""

    def __init__(self, response: dict, recorded: bool = False) -> None:
        super().__init__(response.get("error", "replay"))
        self.response = response
        self.recorded = recorded

    @classmethod
    def refusal(cls, verdict: str, retry_after_s=None, **fields) -> "_Declined":
        """A typed ``rejected:*`` answer, with its backoff hint if any."""
        response = {"ok": False, "error": verdict, "admission": verdict, **fields}
        if retry_after_s is not None:
            response["retry_after_s"] = retry_after_s
        return cls(response)


class MiningServer:
    """Resident daemon: registry + scheduler + caches + TCP front-end.

    Usable at three levels, outermost optional:

    * :meth:`handle` — dict in, dict out; the full protocol without any
      sockets or threads (unit tests drive this directly);
    * :meth:`start` / :meth:`close` — TCP listener, one thread per
      connection, plus the sampler thread (what ``repro serve`` runs);
    * ``with MiningServer(...) as server:`` — start/close scoped.

    Every query runs on the thread that read it. ``workers`` is the
    number of queries that may execute at once — the scheduler's slots;
    the rest wait in priority order. ``workers=0`` sets no bound.
    ``clock`` is forwarded to the scheduler so tests control deadline
    admission deterministically.

    Observability: every run mints a ``query_id`` (returned in the
    response and stamped into every span of the query's trace), the
    metrics registry accumulates latency histograms
    (``serve.latency.total`` / ``.queue_wait`` / ``.first_result``, one
    ``serve.stage.<name>`` per :data:`STAGES` entry, and per-engine
    ``serve.stage.{plan,match,convert}.<engine>``), and a
    :class:`~repro.serve.flightrecorder.FlightRecorder` retains the
    last ``flight_capacity`` query traces plus anomalies — errors,
    partial answers, and queries whose measured match time exceeded
    ``slow_factor ×`` their plan-predicted time. ``sample_interval``
    throttles the background queue-depth sampler started by
    :meth:`start`.
    """

    def __init__(
        self,
        registry: GraphRegistry | None = None,
        policy: AdmissionPolicy | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        clock: Callable[[], float] = time.monotonic,
        slow_factor: float = 8.0,
        flight_capacity: int = 64,
        sample_interval: float = 0.25,
        slo_p99: float | None = None,
        protect_priority: int = 1,
        wall_budget_s: float | None = None,
        rss_budget_bytes: int | None = None,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 5.0,
        drain_deadline_s: float = 5.0,
        state_path: str | None = None,
        chaos: Any = None,
    ) -> None:
        if drain_deadline_s <= 0:
            raise ValueError(
                f"drain_deadline_s must be positive, got {drain_deadline_s!r}"
            )
        self.registry = registry if registry is not None else GraphRegistry()
        self.metrics = MetricsRegistry()
        policy = policy or AdmissionPolicy()
        self.shed = ShedController(
            self.metrics,
            slo_p99=slo_p99,
            protect_priority=protect_priority,
            estimated_service_seconds=policy.estimated_service_seconds,
        )
        self.scheduler = QueryScheduler(
            policy, clock, self.metrics, shed=self.shed, slots=workers
        )
        self.sentinels = SentinelBoard(
            clock=clock,
            wall_budget_s=wall_budget_s,
            rss_budget_bytes=rss_budget_bytes,
        )
        self.breakers = BreakerBoard(
            failure_threshold=breaker_threshold,
            reset_seconds=breaker_reset_s,
            clock=clock,
            on_transition=self._on_breaker_transition,
        )
        self.plan_cache = PlanCache()
        self.measurement_cache = MeasurementCache()
        self._result_cache = BoundedStore()
        self._idempotency = BoundedStore()
        self._idempotency.capacity = _IDEMPOTENCY_CAPACITY
        #: ``run`` request line -> the dict it decoded to (see
        #: :meth:`_read_request`). Nothing on a walk writes to a request.
        self._requests = BoundedStore()
        self.flight = FlightRecorder(
            capacity=flight_capacity, slow_factor=slow_factor
        )
        self.host = host
        self.port = port
        self.workers = workers
        self.sample_interval = sample_interval
        self.drain_deadline_s = drain_deadline_s
        self.state_path = state_path
        #: Optional :class:`repro.testing.faults.QueryFaultPlan` driving
        #: the service-level chaos harness (``None`` in production).
        self.chaos = chaos
        #: Per connection thread: the fault its last ``run`` drew.
        self._drawn = threading.local()
        self._lock = threading.Lock()
        #: Live handler sockets, hung up by :meth:`close`.
        self._connections: set[socket.socket] = set()
        self._tcp: _TCPServer | None = None
        self._threads: list[threading.Thread] = []
        #: Set by :meth:`close`: stops the loops, releases :meth:`wait`.
        self._stop = threading.Event()
        self._started: float | None = None
        #: Query-id sequence (``next`` on a count is atomic).
        self._query_seq = itertools.count(1)

    # -- protocol dispatch ---------------------------------------------------

    def handle(self, request: dict) -> dict:
        """Answer one protocol request (dict in, dict out).

        Never raises: malformed requests and execution failures become
        ``{"ok": false, "error": ...}`` responses, because a daemon
        that dies on a bad request takes every other client with it.
        """
        try:
            op = request.get("op")
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "graphs":
                return {"ok": True, "graphs": self.registry.describe()}
            if op == "load":
                resident = self.registry.load(str(request["graph"]))
                return {"ok": True, "graph": resident.describe()}
            if op == "run":
                return self._walk(Query(request))
            if op == "stats":
                return self._stats_snapshot()
            if op == "health":
                return self._health_snapshot()
            if op == "dump":
                directory, files = self.dump_flight(request.get("dir"))
                return {"ok": True, "dir": directory, "files": files}
            if op in ("drain", "shutdown"):
                # Over a socket the handler loop acts only after the ack
                # is flushed — acting here would race the response write
                # with the listener teardown. Dict-level callers have no
                # handler loop, so act now on their behalf.
                if self._tcp is None:
                    self._after_ack(op)
                return {"ok": True, "draining" if op == "drain" else "stopping": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def _after_ack(self, op) -> bool:
        """Start, off-thread, what an acknowledged ``drain`` or
        ``shutdown`` asks for; whether ``op`` was one of them."""
        if op not in ("drain", "shutdown"):
            return False
        action = self.drain if op == "drain" else self.close
        threading.Thread(target=action, daemon=True).start()
        return True

    def _read_request(self, stream) -> dict | None:
        """The socket handler's next request (``None`` at EOF).

        A ``run`` line seen before is answered from :attr:`_requests`,
        the dict its first copy decoded to, so a repeat makes no JSON
        decode; a line that decodes to any other op, or to a ``run``
        carrying an ``idempotency_key`` or a ``chaos_index`` (unique per
        call, or drawing a fault), is decoded each time and never kept,
        and so is a line longer than :data:`_REQUEST_MEMO_LINE_BYTES`.
        A line that is not a JSON object raises :class:`ValueError`.
        """
        line = stream.readline()
        if not line:
            return None
        if len(line) > _REQUEST_MEMO_LINE_BYTES:
            return protocol.decode_message(line)
        request = self._requests.lookup(line)
        if request is None:
            request = protocol.decode_message(line)
            if request.get("op") == "run" and not (
                "idempotency_key" in request or "chaos_index" in request
            ):
                self._requests.insert(line, request)
        return request

    def _take_fault(self):
        """The chaos fault this thread's last ``run`` drew, once: the
        socket handler's ``encode`` hook."""
        fault = getattr(self._drawn, "fault", None)
        self._drawn.fault = None
        return fault

    # -- observability snapshots ----------------------------------------------

    def _uptime_seconds(self) -> float:
        if self._started is None:
            return 0.0
        return max(0.0, self.scheduler.clock() - self._started)

    def _stats_snapshot(self) -> dict:
        """The versioned ``stats`` payload (:func:`protocol.validate_stats`).

        Reading the ``queue`` section *ends* the current window-gauge
        window: consecutive snapshots partition time, so each reports
        the depth envelope since the previous one.
        """
        self.scheduler.sample_depth()
        flight = self.flight.occupancy()
        flight["recent_anomalies"] = [
            record.describe() for record in self.flight.anomalies(8)
        ]
        return {
            "ok": True,
            "schema_version": protocol.STATS_SCHEMA_VERSION,
            "metrics": self.metrics.snapshot(),
            "histograms": self.metrics.histogram_snapshots(),
            "queue": self.metrics.window("serve.queue.depth").read(),
            "scheduler": self.scheduler.snapshot(),
            "graphs": self.registry.names(),
            "result_cache_entries": len(self._result_cache),
            "result_cache_evictions": self.metrics.value(
                "serve.result_cache.evictions", 0
            ),
            "plan_cache": {
                "hits": self.plan_cache.hits,
                "misses": self.plan_cache.misses,
            },
            "caches": {
                "result": self._result_cache.describe(),
                "idempotency": self._idempotency.describe(),
                "plan": self.plan_cache.describe(),
                "measurement": self.measurement_cache.describe(),
                "requests": self._requests.describe(),
            },
            "flight": flight,
            "uptime_seconds": self._uptime_seconds(),
            "service": {
                "state": self.drain_state,
                "workers": self.workers,
                "drain_deadline_s": self.drain_deadline_s,
                "idempotency_entries": len(self._idempotency),
            },
            "shed": self.shed.snapshot(),
            "breakers": self.breakers.snapshot(),
            "sentinels": self.sentinels.snapshot(),
        }

    def _health_snapshot(self) -> dict:
        """The cheap liveness payload (no histogram walks, no windows)."""
        return {
            "ok": True,
            "status": "ok",
            "schema_version": protocol.STATS_SCHEMA_VERSION,
            "uptime_seconds": self._uptime_seconds(),
            "queries": self.metrics.value("serve.queries", 0),
            "queue_depth": self.scheduler.depth,
        }

    def dump_flight(self, directory: str | None = None) -> tuple[str, list[str]]:
        """Write the flight recorder's retained traces to ``directory``.

        With ``directory=None`` a fresh ``repro-flight-*`` temp
        directory is created. Returns ``(directory, written paths)``.
        Wired to the ``dump`` op and the CLI's ``SIGUSR1`` handler.
        """
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-flight-")
        files = self.flight.dump(str(directory))
        self.metrics.add("serve.flight.dumps")
        return str(directory), files

    # -- the run op: one walk over STAGES ---------------------------------------

    def _walk(self, query: Query) -> dict:
        """Walk :data:`STAGES` for one ``run`` request, on this thread.

        The runner: the only code that times, traces, faults and records
        a served query. Per stage it samples ``serve.stage.<name>``,
        keeps a ``(name, start, end)`` mark (a span in the flight trace
        if the query gets a tracer) and fires the query's chaos fault
        if the fault's kind names the stage. A stage answers by
        returning the response, or fails by raising; from then on only
        ``record`` runs, and a failure is answered as
        ``{"ok": false, "error", "query_id"}``. A :class:`_Declined`
        answer ends the walk, unrecorded unless it says otherwise;
        every other walk leaves one flight record and one
        ``serve.latency.total`` sample. A query granted a slot by
        ``queue`` gives it back as its walk ends. The samples and counts
        a walk takes are recorded together as it ends, however it ends:
        one :meth:`MetricsRegistry.record_batch`.
        """
        clock = self.scheduler.clock
        samples: list[tuple[str, float]] = []
        counts: list[str] = []
        arrived = query.submitted_at = clock()
        query.query_id = f"q-{next(self._query_seq):06d}"
        try:
            for stage in STAGES:
                if stage is not _RECORD and (
                    query.answer is not None or query.error is not None
                ):
                    continue
                start = time.perf_counter()
                try:
                    if query.fault is not None and query.fault.stage == stage.name:
                        query.fault.fire(query.sentinel and query.sentinel.deadline)
                    answer = stage.run(self, query)
                except _Declined as declined:
                    if not declined.recorded:
                        return declined.response
                    query.answer, answer = declined.response, None
                    break
                except Exception as exc:  # noqa: BLE001 - answered below
                    query.error, answer = exc, None
                finally:
                    end = time.perf_counter()
                    samples.append((_STAGE_METRICS[stage.name], end - start))
                    query.marks.append((stage.name, start, end))
                if answer is not None:
                    query.answer = answer
                    if answer.get("cached"):
                        counts.append("serve.result_cache.hits")
                    samples.append((
                        "serve.latency.first_result",
                        max(0.0, clock() - query.submitted_at),
                    ))
            if query.holds_slot:
                samples.append(("serve.latency.queue_wait", query.queue_wait))
            for phase, seconds in query.phases:
                samples.append((f"serve.stage.{phase}.{query.options.engine}", seconds))
            samples.append(("serve.latency.total", clock() - arrived))
            if query.answer is None:
                error = f"{type(query.error).__name__}: {query.error}"
                query.answer = {"ok": False, "error": error, "query_id": query.query_id}
            elif query.answer.get("ok"):
                counts.append("serve.queries")  # hits are queries too
            self._record_flight(query)
        finally:
            if query.holds_slot:
                self.sentinels.finish(query.query_id)
                self.scheduler.release(query)
            self.metrics.record_batch(samples, counts)
        return query.answer

    def _admit(self, query: Query) -> None:
        """Draining, idempotency replay, options, breaker; the query's
        deadline starts here."""
        request = query.request
        if self.scheduler.state != "accepting":
            self.metrics.add("serve.admission.rejected.draining")
            raise _Declined.refusal(REJECTED_DRAINING)
        idempotency_key = request.get("idempotency_key")
        if idempotency_key is not None:
            stored = self._idempotency.lookup(str(idempotency_key))
            if stored is not None:
                # A retried query whose first attempt completed (but
                # whose response the client never saw — torn socket,
                # timeout) replays the exact original response.
                self.metrics.add("serve.idempotent.replays")
                raise _Declined(dict(stored))
        if self.chaos is not None:
            fault = self.chaos.begin(request.get("chaos_index"))
            if fault.spec is not None:
                query.fault = self._drawn.fault = fault
        query.client = str(request.get("client", "anonymous"))
        fields = request.get("options")
        options = RunOptions.from_dict(fields) if fields else _DEFAULT_OPTIONS
        if fields:
            _refuse_unserved(options)
        query.options = options
        breaker = self._breaker(query)
        if not breaker.allow():
            self.metrics.add("serve.admission.rejected.circuit-open")
            raise _Declined.refusal(REJECTED_CIRCUIT_OPEN, breaker.retry_after())
        query.priority = int(request.get("priority", 0))
        query.deadline = self.scheduler.make_deadline(options.deadline_seconds)
        query.cache_key = self._result_key(request, options)

    def _breaker(self, query: Query):
        """The breaker cell of the query's (graph, engine), looked up
        once per walk."""
        if query.breaker is None:
            query.breaker = self.breakers.get(
                str(query.request.get("graph", "?")), str(query.options.engine)
            )
        return query.breaker

    def _result_key(self, request: dict, options: RunOptions) -> tuple | None:
        """Result-cache identity: everything that can change the answer.

        ``None`` when the request bypasses the cache, or when it is
        malformed (unknown graph, no patterns…): the scheduled path then
        reports it exactly as it always has. ``deadline_seconds`` is
        excluded deliberately — a deadline changes *whether* the full
        answer arrives, not what it is, and partial results are never
        cached. Local-only fields can't occur here (options arrived via
        ``from_dict``), so ``aggregation`` is a wire name or ``None``.
        """
        if not request.get("use_result_cache", True):
            return None
        try:
            resident = self.registry.get(str(request["graph"]))
            texts = tuple(map(str, request.get("patterns") or []))
        except (KeyError, TypeError):
            return None
        return (
            resident.graph.fingerprint,
            texts,
            options.aggregation or "count",
            options.engine,
            options.strategy,
            options.morph,
            options.margin,
            options.workers,
            options.batch_roots,
        )

    def _lookup(self, query: Query) -> dict | None:
        """The cache entry for ``query`` stamped for it; ``None`` on a miss.

        A hit is answered on the connection thread. It is not an
        admission: it never waits in the queue, is never shed and does
        not count against ``max_per_client``. A request carrying a chaos
        fault bypasses the cache, so fault plans replay unchanged. The
        answer carries its frame: the entry's, with ``cached`` and
        ``query_id`` spliced on, so nothing is encoded. The walk counts
        the hit.
        """
        if query.cache_key is None or query.fault is not None:
            return None
        hit = self._result_cache.lookup(query.cache_key)
        if hit is None:
            return None
        return protocol.stamped(hit, True, query.query_id)

    def _queue(self, query: Query) -> None:
        """Shed and admission, then the wait for a slot.

        A granted query is armed with its sentinel before anything can
        run away: its deadline — the tighter of what is left of the
        request's own, which started at admission, and the server wall
        budget — lets the board cancel the run.
        """
        verdict = self.scheduler.submit(query)
        if verdict != ACCEPTED:
            raise _Declined.refusal(
                verdict, query.retry_after_s, query_id=query.query_id
            )
        refusal = self.scheduler.acquire(query)
        if refusal is not None:
            raise _Declined(refusal, recorded=True)
        query.sentinel = self.sentinels.watch(query.query_id, query.deadline)

    def _run(self, query: Query) -> dict:
        """Resolve graph and patterns, then run the session.

        The cache is looked up again first, for a query that queued
        behind an identical one; misses are counted here alone, so each
        is counted once.
        """
        hit = self._lookup(query)
        if hit is not None:
            return hit
        if query.cache_key is not None:
            self.metrics.add("serve.result_cache.misses")
        request, options = query.request, query.options
        resident = self.registry.get(str(request["graph"]))
        texts = list(request.get("patterns") or [])
        if not texts:
            raise ValueError("run request carries no patterns")
        patterns = [parse_pattern(str(t)) for t in texts]
        query.tracer = tracer = Tracer(tags={"query_id": query.query_id})
        from repro.api import resolve_engine

        engine = resolve_engine(options.engine, fresh=True)
        served = dict(
            trace=tracer, plan_cache=self.plan_cache, cache=self.measurement_cache
        )
        if query.sentinel is not None:
            served["deadline_seconds"] = query.sentinel.deadline
        run_options = options.replace(**served)
        with tracer.span(
            "serve.query",
            graph=resident.name,
            client=query.client,
            engine=options.engine,
            patterns=len(patterns),
        ):
            session = MorphingSession(engine, options=run_options)
            result = session.run(resident.graph, patterns)
        query.trace = result.trace
        self.metrics.merge(tracer.metrics)
        query.phases = (
            ("plan", result.transform_seconds),
            ("match", result.match_seconds),
            ("convert", result.convert_seconds),
        )
        partial = isinstance(result, PartialRunResult)
        response: dict[str, Any] = {
            "ok": True,
            "results": {
                text: protocol.encode_value(result.results.get(pattern))
                for text, pattern in zip(texts, patterns)
            },
            "cached": False,
            "partial": partial,
            "query_id": query.query_id,
            "seconds": {
                "transform": result.transform_seconds,
                "match": result.match_seconds,
                "convert": result.convert_seconds,
                "executor": result.executor_seconds,
                "total": result.total_seconds,
            },
            "metrics": {
                name: tracer.metrics.value(name)
                for name in _RESPONSE_METRICS
                if tracer.metrics.value(name, None) is not None
            },
        }
        if partial:
            response["coverage"] = result.coverage
            response["unresolved"] = [format_pattern(p) for p in result.unresolved]
        return response

    def _record(self, query: Query) -> None:
        """Result-cache insert, breaker and sentinel attribution,
        idempotency store."""
        if query.options is None:
            return  # failed in admit, before it named a breaker cell
        breaker = self._breaker(query)
        sentinel, answer = query.sentinel, query.answer
        tripped = sentinel.tripped if sentinel is not None else None
        if answer is None:
            if isinstance(query.error, WorkerCrashError) or tripped is not None:
                breaker.record_failure()
            return
        if query.cache_key is not None and not (answer["cached"] or answer["partial"]):
            # Partial results never enter the cache: a later identical
            # query without deadline pressure deserves the full answer.
            # The fresh query_id is stripped with the cached flag — a
            # repeat query gets its own id stamped on the hit path. The
            # entry is encoded once: this answer's frame is spliced
            # from it too.
            entry = _cache_entry(answer)
            evicted = self._result_cache.insert(query.cache_key, entry)
            if evicted:
                self.metrics.add("serve.result_cache.evictions", evicted)
            answer = query.answer = protocol.stamped(
                entry, False, answer["query_id"]
            )
        if tripped is None and sentinel is not None and answer["partial"]:
            # The run degraded without a poll-time trip: a wall-budget
            # overrun the sampler never sampled still gets attributed.
            tripped = sentinel.check(None)
            if tripped is not None:
                self.metrics.add(f"serve.sentinel.trip.{tripped}")
            elif sentinel.deadline.expiry_reason is not None:
                tripped = sentinel.deadline.expiry_reason
        if tripped is not None:
            breaker.record_failure()
            answer = query.answer = {**answer, "sentinel": tripped}
        else:
            # An answered query (a hit too) closes a half-open breaker.
            breaker.record_success()
        idempotency_key = query.request.get("idempotency_key")
        if idempotency_key is not None and not answer["partial"]:
            self._idempotency.insert(str(idempotency_key), answer)

    def _record_flight(self, query: Query) -> None:
        """Retain one walked query in the flight recorder.

        Errors that struck before a session existed (bad options, an
        unknown graph) are retained traceless. A query with a tracer
        gets one ``serve.stage.<name>`` span per stage it walked, the
        session's spans nested under ``execute``. The slowness verdict
        compares the selection audit's measured match seconds against
        its predicted cost scaled by the engine profile's calibrated
        ``unit_seconds``.
        """
        request, tracer = query.request, query.tracer
        answer = query.answer or {}
        engine = str(query.options.engine if query.options else RunOptions.engine)
        graph = str(request.get("graph", "?"))
        error = None
        if query.error is not None:
            error = f"{type(query.error).__name__}: {query.error}"
        elif not answer.get("ok"):
            error = str(answer.get("error"))
        predicted_cost = predicted_seconds = measured_seconds = trace = None
        if tracer is not None:
            selection = next(
                (a for a in tracer.audits if getattr(a, "role", None) == "selection"),
                None,
            )
            if selection is not None:
                predicted_cost = float(selection.predicted_cost)
                predicted_seconds = predicted_cost * profile_for(engine).unit_seconds
                measured_seconds = float(selection.measured_seconds)
            session_roots = [s for s in tracer.spans if s.parent_id is None]
            # The session's snapshot is the record's trace (a session
            # that raised left none): it shares the tracer's span
            # objects, so only the stage spans added below are new.
            trace = query.trace or RunTrace.from_tracer(tracer)
            # The walk marks its stages in order, so by start time.
            for name, start, end in query.marks:
                span = tracer.add(_STAGE_METRICS[name], start, end)
                trace.spans.append(span)
                if name == "execute":
                    for root in session_roots:
                        root.parent_id = span.span_id
            trace.meta = dict(
                query_id=query.query_id,
                client=query.client,
                graph=graph,
                engine=engine,
            )
        record = self.flight.record(
            FlightRecord(
                query_id=query.query_id or "",
                client=query.client,
                graph=graph,
                engine=engine,
                patterns=list(map(str, request.get("patterns") or [])),
                status=(
                    "error" if error else "partial" if answer.get("partial") else "ok"
                ),
                cached=bool(answer.get("cached")),
                seconds=max(0.0, self.scheduler.clock() - query.submitted_at),
                queue_wait=query.queue_wait,
                predicted_cost=predicted_cost,
                predicted_seconds=predicted_seconds,
                measured_seconds=measured_seconds,
                error=error,
                trace=trace,
            )
        )
        if record.slow:
            self.metrics.add("serve.slow_queries")

    def _on_breaker_transition(self, cell: str, old: str, new: str) -> None:
        """Record one circuit-breaker state change (metric + anomaly)."""
        self.metrics.add(f"serve.breaker.transition.{new}")
        self.flight.note("breaker", f"{cell}: {old} -> {new}")

    # -- drain and warm restart ----------------------------------------------

    @property
    def drain_state(self) -> str:
        """Service lifecycle state: ``accepting``/``draining``/``closed``
        (the scheduler keeps it)."""
        return self.scheduler.state

    def drain(self, dump_dir: str | None = None) -> dict:
        """Graceful stop: finish in-flight work, persist, then close.

        The SIGTERM path (and the ``drain`` op). State machine:
        ``accepting`` → ``draining`` (submissions rejected with
        ``rejected:draining``, queued/executing queries run to
        completion under ``drain_deadline_s``) → ``closed`` (listener
        down, connections hung up). Before
        closing, the flight recorder is dumped (to ``dump_dir`` or a
        temp directory) and — when ``state_path`` is configured — the
        registry manifest and result-cache journal are saved so
        ``repro serve --resume`` reboots warm. Idempotent: a second
        call reports the current state without re-draining.
        """
        if not self.scheduler.set_draining(True):
            return {"state": self.drain_state, "drained": False}
        self.metrics.add("serve.drain.started")
        self.flight.note("drain", "drain started")
        deadline = Deadline(self.drain_deadline_s, clock=self.scheduler.clock)
        while self.scheduler.total_inflight() > 0 and not deadline.expired():
            time.sleep(0.01)
        abandoned = self.scheduler.total_inflight()
        drained = abandoned == 0
        summary: dict[str, Any] = {"drained": drained, "abandoned": abandoned}
        self.flight.note(
            "drain",
            "drained clean" if drained else
            f"drain deadline expired with {abandoned} in flight",
        )
        directory, files = self.dump_flight(dump_dir)
        summary["flight_dir"] = directory
        summary["flight_files"] = len(files)
        if self.state_path is not None:
            try:
                entries = save_service_state(
                    self.state_path,
                    graphs=self.registry.names(),
                    # Handlers insert until the listener closes.
                    result_cache=self._result_cache.snapshot(),
                    meta={"drained": drained},
                )
                summary["state_entries"] = entries
                self.metrics.add("serve.drain.state_saved")
            except OSError as exc:
                warnings.warn(
                    f"could not persist service state to "
                    f"{self.state_path}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                summary["state_error"] = str(exc)
        self.close()
        summary["state"] = "closed"
        return summary

    def resume_from(self, path: str) -> dict:
        """Warm-restart from a drain journal written by :meth:`drain`.

        Reloads every graph named in the manifest (failures warn and
        skip — a path that vanished between incarnations must not stop
        the daemon booting) and installs the persisted result-cache
        entries. Keys embed the graph fingerprint, so entries for a
        graph whose data changed simply never match again.
        """
        state = load_service_state(path)
        loaded: list[str] = []
        failed: list[str] = []
        for name in state.graphs:
            try:
                self.registry.load(name)
                loaded.append(name)
            except Exception as exc:  # noqa: BLE001 - boot must proceed
                warnings.warn(
                    f"could not re-load resident graph {name!r} on resume: "
                    f"{type(exc).__name__}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                failed.append(name)
        # A journal may come from a build with a larger (or no) bound.
        for key, entry in state.results.items():
            self._result_cache.insert(key, _cache_entry(entry))
        self.metrics.add("serve.resume.graphs", len(loaded))
        self.metrics.add("serve.resume.results", len(state.results))
        if state.skipped:
            self.metrics.add("serve.resume.skipped_records", state.skipped)
        return {
            "graphs": loaded,
            "failed": failed,
            "results": len(state.results),
            "skipped_records": state.skipped,
        }

    # -- socket front-end ----------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind the TCP listener and start its thread and the sampler's.

        Returns the bound ``(host, port)`` — with ``port=0`` the OS
        picks a free port, so parallel test runs never collide.
        """
        if self._tcp is not None:
            return self.host, self.port
        self._started = self.scheduler.clock()
        self._stop.clear()
        self._tcp = _TCPServer((self.host, self.port), _Handler, self)
        self.host, self.port = self._tcp.server_address[:2]
        self._threads = []
        self._spawn(self._tcp.serve_forever, "listener", poll_interval=0.05)
        if self.sample_interval > 0:
            self._spawn(self._sampler_loop, "sampler")
        return self.host, self.port

    def _spawn(self, target, name: str, **kwargs) -> None:
        """Start one daemon thread that :meth:`close` joins."""
        thread = threading.Thread(
            target=target, name=f"repro-serve-{name}", kwargs=kwargs, daemon=True
        )
        thread.start()
        self._threads.append(thread)

    def _sampler_loop(self) -> None:
        """Periodic queue-depth sampling (the satellite to admission-time
        gauging): keeps the window gauge's envelope honest when the
        queue drains or bursts between protocol requests. The same beat
        polls the sentinel board, so wall/RSS budget overruns are
        detected within one sample interval."""
        while not self._stop.wait(self.sample_interval):
            self.scheduler.sample_depth()
            for query_id, reason in self.sentinels.poll():
                self.metrics.add(f"serve.sentinel.trip.{reason}")
                self.flight.note("sentinel-trip", f"{query_id}: {reason}")

    def wait(self, timeout: float | None = None) -> bool:
        """Block until :meth:`close` runs (the ``repro serve`` main loop)."""
        return self._stop.wait(timeout)

    def _track_connection(self, connection: socket.socket) -> None:
        """Register an accepted connection until its handler closes it."""
        self.metrics.add("serve.connections.opened")
        with self._lock:
            self._connections.add(connection)

    def _untrack_connection(self, connection: socket.socket) -> None:
        with self._lock:
            self._connections.discard(connection)

    def close(self) -> None:
        """Stop listening, refuse queued queries, hang up live
        connections, release the graphs.

        Clients keep their connections open between requests, so a
        closed daemon must hang them up: otherwise their handler threads
        would go on answering. Idempotent and safe to race: the shutdown
        op's handler thread and the ``repro serve`` main loop both call
        it.
        """
        self._stop.set()
        # Closing the scheduler first refuses new runs from here on.
        self.scheduler.close()
        with self._lock:
            tcp, self._tcp = self._tcp, None
        if tcp is not None:
            tcp.shutdown()
            tcp.server_close()
        # The listener is down, so the set can no longer grow.
        with self._lock:
            connections, self._connections = self._connections, set()
        for connection in connections:
            # End both directions: its handler sees EOF.
            with contextlib.suppress(OSError):  # already gone
                connection.shutdown(socket.SHUT_RDWR)
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5)
        self._threads = []
        self.registry.close()

    def __enter__(self) -> "MiningServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _TCPServer(socketserver.ThreadingTCPServer):
    """Threading TCP server carrying a back-reference to the daemon."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, handler, mining_server: MiningServer) -> None:
        self.mining_server = mining_server
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        # Runs on the listener thread, so once ``shutdown()`` returns no
        # connection can be registered behind ``close()``'s back.
        self.mining_server._track_connection(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        self.mining_server._untrack_connection(request)


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a loop of request → :meth:`MiningServer.handle`.

    Clients keep the connection open between requests (one per client
    thread). The loop ends on EOF, after a ``shutdown``/``drain`` ack,
    on a wire fault, or when :meth:`MiningServer.close` hangs it up.

    Protocol errors are *answered*, not dropped: a torn, blank or
    non-JSON request line gets a typed ``protocol-error`` response (and a
    flight-recorder anomaly) before the connection closes — a client
    whose serializer glitched learns so, instead of staring at a
    silently closed socket. The stream state after a bad line is
    unknowable, so the connection still ends afterwards.
    """

    #: Responses are small and latency-bound: never hold one for an ACK.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server: MiningServer = self.server.mining_server  # type: ignore[attr-defined]
        while True:
            hang_up = False
            try:
                request = server._read_request(self.rfile)
            except (ConnectionError, socket.error):
                break
            except ValueError as exc:
                # Malformed request line (bad JSON, blank, non-object,
                # torn UTF-8): typed response, anomaly, then hang up.
                error = f"{type(exc).__name__}: {exc}"
                server.metrics.add("serve.protocol.errors")
                server.flight.note("protocol-error", error)
                request, hang_up = {}, True
                response = {
                    "ok": False,
                    "error": "protocol-error: request line is not a JSON "
                    f"object ({error})",
                }
            else:
                if request is None:
                    break
                response = server.handle(request)
            frame = (
                response.frame
                if type(response) is protocol.Framed
                else protocol.encode_message(response)
            )
            fault = server._take_fault() if server.chaos is not None else None
            if fault is not None and fault.stage == "encode":
                frame = fault.encode(frame)
                if frame is None:
                    break  # a torn socket: hang up unanswered
            try:
                self.wfile.write(frame)
                self.wfile.flush()
            except (ConnectionError, socket.error, BrokenPipeError):
                break
            if server._after_ack(request.get("op")) or hang_up:
                break  # the ack is on the wire


#: The ``run`` op, in order: the one declaration of a served query's
#: path, walked by :meth:`MiningServer._walk` on the thread that read
#: the request. ``queue`` returns once the query holds an execution
#: slot; a hit answered by ``result_cache`` goes straight to ``record``.
STAGES = (
    Stage("admit", MiningServer._admit),
    Stage("result_cache", MiningServer._lookup),
    Stage("queue", MiningServer._queue),
    Stage("execute", MiningServer._run),
    Stage("record", MiningServer._record),
)
_RECORD = STAGES[-1]
#: Each stage's histogram, and the name of its span in a flight trace.
_STAGE_METRICS = {stage.name: f"serve.stage.{stage.name}" for stage in STAGES}
