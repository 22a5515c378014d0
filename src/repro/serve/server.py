"""The resident mining daemon: :class:`MiningServer`.

One process owns the expensive state — resident graphs (with their
shared-memory segments), a warm :class:`repro.PlanCache`, a
:class:`repro.MeasurementCache`, and a result cache — and answers
queries over the JSON-lines protocol (:mod:`.protocol`).
Requests flow through the :class:`.scheduler.QueryScheduler` (priority
ordering, per-client limits, deadline-aware admission) into a small
pool of worker threads, each of which builds a *fresh* engine per query
(:func:`repro.resolve_engine` with ``fresh=True`` — engine instances
carry per-run mutable state and must never be shared across concurrent
runs).

Three cache layers, coarsest first:

1. **result cache** — byte-identical encoded payloads keyed by (graph
   fingerprint, pattern texts, aggregation, engine, strategy, morph
   knobs); a hit is answered on the connection thread, before the
   scheduler, and touches neither the queue nor the pipeline;
2. **plan cache** — a result-cache miss still skips plan *search* when
   the same (graph, queries, engine, strategy) was planned before;
3. **measurement cache** — memoized alternative-set measurements
   shared across queries (keyed by graph fingerprint).

Each layer, and the idempotency map, is a
:class:`repro.morph.cache.BoundedStore`: one bound rule, one lock and
one eviction counter per tier. Every layer reports into the server's
metrics registry (``serve.result_cache.*``, merged ``plan.cache.*``,
admission verdicts and queue depth from the scheduler), surfaced by
the ``stats`` op.
"""

from __future__ import annotations

import socket
import socketserver
import tempfile
import threading
import time
import warnings
from typing import Any, Callable

from repro.core.parser import format_pattern, parse_pattern
from repro.engines.recovery import Deadline
from repro.errors import WorkerCrashError
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

__all__ = ["MiningServer"]

#: Bound on the idempotency map (completed responses kept for replay).
#: The other tiers keep :data:`repro.morph.cache.STORE_CAPACITY`.
_IDEMPOTENCY_CAPACITY = 256

#: Metrics forwarded to clients in every run response (cache behavior
#: is part of the service contract, so clients can assert on it).
_RESPONSE_METRICS = ("plan.cache.hit", "plan.cache.miss")


class MiningServer:
    """Resident daemon: registry + scheduler + caches + TCP front-end.

    Usable at three levels, outermost optional:

    * :meth:`handle` — dict in, dict out; the full protocol without any
      sockets or threads (unit tests drive this directly);
    * :meth:`start` / :meth:`close` — TCP listener plus worker threads
      (what ``repro serve`` runs);
    * ``with MiningServer(...) as server:`` — start/close scoped.

    ``clock`` is forwarded to the scheduler so tests control deadline
    admission deterministically. ``workers=0`` runs queries
    synchronously in whichever thread submitted them (deterministic
    integration tests); any positive count gives real cross-query
    concurrency.

    Observability: every run mints a ``query_id`` (returned in the
    response and stamped into every span of the query's trace), the
    metrics registry accumulates latency histograms
    (``serve.latency.total`` / ``.queue_wait`` / ``.first_result`` and
    per-engine ``serve.stage.{plan,match,convert}.<engine>``), and a
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
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers!r}")
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
            policy=policy, clock=clock, metrics=self.metrics, shed=self.shed
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
        self._lock = threading.Lock()
        #: Live handler sockets, hung up by :meth:`close`.
        self._connections: set[socket.socket] = set()
        self._tcp: _TCPServer | None = None
        self._threads: list[threading.Thread] = []
        self._worker_threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._closed = threading.Event()
        self._started: float | None = None
        self._query_seq = 0
        #: Drain state machine: ``accepting`` → ``draining`` → ``closed``.
        self._drain_state = "accepting"

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
                return self._handle_run(request)
            if op == "stats":
                return self._stats_snapshot()
            if op == "health":
                return self._health_snapshot()
            if op == "dump":
                directory, files = self.dump_flight(request.get("dir"))
                return {"ok": True, "dir": directory, "files": files}
            if op == "drain":
                # Same write-then-act discipline as shutdown: over a
                # socket the handler loop starts the drain after the
                # ack is flushed; dict-level callers get a thread here.
                if self._tcp is None:
                    threading.Thread(target=self.drain, daemon=True).start()
                return {"ok": True, "draining": True}
            if op == "shutdown":
                # Over a socket the handler loop triggers close() only
                # after the acknowledgement is flushed — starting it
                # here would race the response write with the listener
                # teardown. Dict-level callers have no handler loop, so
                # close immediately on their behalf.
                if self._tcp is None:
                    threading.Thread(target=self.close, daemon=True).start()
                return {"ok": True, "stopping": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

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
            },
            "flight": flight,
            "uptime_seconds": self._uptime_seconds(),
            "service": {
                "state": self._drain_state,
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

    def _next_query_id(self) -> str:
        with self._lock:
            self._query_seq += 1
            return f"q-{self._query_seq:06d}"

    def _handle_run(self, request: dict) -> dict:
        """Answer one mining query, from the result cache or scheduled.

        The checks run in this order: draining, idempotency replay,
        breaker. Then a result-cache hit is answered right here, on the
        calling (connection) thread. A hit is not an admission: it never
        waits in the queue, so it records no ``serve.latency.queue_wait``,
        it is never shed and it does not count against
        ``max_per_client``. Only a miss (or a request carrying a chaos
        fault, so fault plans replay unchanged) becomes a scheduled
        :class:`Query`. Both paths share the tail: ``serve.latency.total``,
        the wire-fault marker and the idempotency store.
        """
        if self._drain_state != "accepting":
            self.metrics.add("serve.admission.rejected.draining")
            return {
                "ok": False,
                "error": REJECTED_DRAINING,
                "admission": REJECTED_DRAINING,
            }
        idempotency_key = request.get("idempotency_key")
        if idempotency_key is not None:
            stored = self._idempotency.lookup(str(idempotency_key))
            if stored is not None:
                # A retried query whose first attempt completed (but
                # whose response the client never saw — torn socket,
                # timeout) replays the exact original response.
                self.metrics.add("serve.idempotent.replays")
                return dict(stored)
        if self.chaos is not None:
            spec, attempt = self.chaos.begin(request.get("chaos_index"))
            if spec is not None:
                request["_chaos"] = (spec, attempt)
        options = self._parse_options(request)
        breaker = self.breakers.get(
            str(request.get("graph", "?")), str(options.engine)
        )
        if not breaker.allow():
            self.metrics.add("serve.admission.rejected.circuit-open")
            response: dict[str, Any] = {
                "ok": False,
                "error": REJECTED_CIRCUIT_OPEN,
                "admission": REJECTED_CIRCUIT_OPEN,
            }
            retry_after = breaker.retry_after()
            if retry_after is not None:
                response["retry_after_s"] = retry_after
            return response
        query = Query(
            request,
            client=str(request.get("client", "anonymous")),
            priority=int(request.get("priority", 0)),
            deadline=self.scheduler.make_deadline(options.deadline_seconds),
            query_id=self._next_query_id(),
        )
        query.options = options
        query.cache_key = self._result_key(request, options)
        accepted_at = query.submitted_at = self.scheduler.clock()
        hit = None
        if query.cache_key is not None and "_chaos" not in request:
            hit = self._cached_response(query)
        if hit is not None:
            # As on the worker, an answered query closes a half-open
            # breaker and resets its failure count.
            breaker.record_success()
            response = hit
        else:
            verdict = self.scheduler.submit(query)
            if verdict != ACCEPTED:
                response = {
                    "ok": False,
                    "error": verdict,
                    "admission": verdict,
                    "query_id": query.query_id,
                }
                if query.retry_after_s is not None:
                    response["retry_after_s"] = query.retry_after_s
                return response
            if not self._worker_threads:
                # Synchronous mode (``workers=0``, dict-level unit tests):
                # drain the queue in the calling thread until this query
                # resolves — higher-priority work still runs first.
                while query.response is None:
                    self.scheduler.run_next(self._execute)
            response = query.wait(timeout=None)
            assert response is not None
        # End-to-end latency includes queueing, execution *and* the
        # submitter's wakeup — the number a client actually experiences.
        self.metrics.observe(
            "serve.latency.total", self.scheduler.clock() - accepted_at
        )
        chaos = request.get("_chaos")
        if chaos is not None and chaos[0].kind in ("corrupt", "torn-socket"):
            # Wire-level faults ride the response as a private marker
            # the socket handler pops before (not) writing the bytes.
            response = dict(response)
            response["_chaos_wire"] = chaos[0].kind
        if (
            idempotency_key is not None
            and response.get("ok")
            and not response.get("partial")
        ):
            clean = {
                k: v for k, v in response.items() if k != "_chaos_wire"
            }
            self._idempotency.insert(str(idempotency_key), clean)
        return response

    def _parse_options(self, request: dict) -> RunOptions:
        """``request``'s run options; bad ones are a flight anomaly too."""
        try:
            return RunOptions.from_dict(request.get("options") or {})
        except Exception as exc:
            query = Query(
                request,
                client=str(request.get("client", "anonymous")),
                query_id=self._next_query_id(),
            )
            self._record_failure(query, exc)
            raise

    def _record_failure(self, query: Query, exc: Exception) -> None:
        """Retain a query that died before a session existed (unknown
        graph, unparseable pattern, bad options): the operator will ask
        about it, so it is an anomaly, traceless."""
        request = query.request
        self._record_flight(
            query,
            str(request.get("graph", "?")),
            list(request.get("patterns") or []),
            query.options or RunOptions(),
            status="error",
            error=f"{type(exc).__name__}: {exc}",
        )

    def _result_key(self, request: dict, options: RunOptions) -> tuple | None:
        """Result-cache identity: everything that can change the answer.

        ``None`` when the request bypasses the cache, or when it is
        malformed (unknown graph, no patterns…): the scheduled path then
        reports it exactly as it always has. ``deadline_seconds`` is
        excluded deliberately — a deadline changes *whether* the full
        answer arrives, not what it is, and partial results are never
        cached. Local-only fields can't occur here (options arrived via
        ``from_dict``).
        """
        if not request.get("use_result_cache", True):
            return None
        try:
            resident = self.registry.get(str(request["graph"]))
            texts = tuple(str(t) for t in request.get("patterns") or [])
        except (KeyError, TypeError):
            return None
        aggregation = options.aggregation
        if aggregation is not None and not isinstance(aggregation, str):
            aggregation = aggregation.name
        return (
            resident.graph.fingerprint,
            texts,
            aggregation or "count",
            options.engine,
            options.strategy,
            options.morph,
            options.margin,
            options.workers,
            options.batch_roots,
        )

    def _cached_response(self, query: Query, queue_wait: float = 0.0) -> dict | None:
        """The result-cache entry for ``query`` stamped for it.

        The one lookup behind both hit paths: before admission (on the
        connection thread) and on the worker, for a query that queued
        behind an identical one. Returns ``None`` on a miss; misses are
        counted by the worker alone, so each is counted once.
        """
        hit = self._result_cache.lookup(query.cache_key)
        if hit is None:
            return None
        self.metrics.add("serve.result_cache.hits")
        response = dict(hit)
        response["cached"] = True
        response["query_id"] = query.query_id
        self._observe_first_result(query)
        request = query.request
        self._record_flight(
            query,
            str(request["graph"]),
            list(request.get("patterns") or []),
            query.options,
            status="ok",
            cached=True,
            queue_wait=queue_wait,
        )
        return response

    # -- query execution -----------------------------------------------------

    def _execute(self, query: Query) -> dict:
        """Run one admitted query to a wire-ready response payload."""
        request = query.request
        try:
            resident = self.registry.get(str(request["graph"]))
            texts = list(request.get("patterns") or [])
            if not texts:
                raise ValueError("run request carries no patterns")
            patterns = [parse_pattern(str(t)) for t in texts]
        except Exception as exc:
            self._record_failure(query, exc)
            raise
        options = query.options
        queue_wait = 0.0
        if query.submitted_at is not None and query.started_at is not None:
            queue_wait = max(0.0, query.started_at - query.submitted_at)
        self.metrics.observe("serve.latency.queue_wait", queue_wait)
        breaker = self.breakers.get(
            str(request.get("graph", "?")), str(options.engine)
        )
        # Arm the watchdog before anything can run away: its deadline —
        # the tighter of the request's own and the server wall budget —
        # replaces the plain seconds so the board (or the budgets) can
        # cancel the run externally through the established path.
        sentinel = self.sentinels.watch(
            query.query_id or "", options.deadline_seconds
        )
        run_options = options
        if sentinel is not None:
            run_options = options.replace(deadline_seconds=sentinel.deadline)
        try:
            self._apply_chaos(query, sentinel, resident.name, texts, options)
            response = self._run_query(
                query, resident, texts, patterns, options, run_options, queue_wait
            )
        except Exception as exc:
            if isinstance(exc, WorkerCrashError) or (
                sentinel is not None and sentinel.tripped
            ):
                breaker.record_failure()
            raise
        finally:
            self.sentinels.finish(query.query_id or "")
        tripped = sentinel.tripped if sentinel is not None else None
        if tripped is None and sentinel is not None and response.get("partial"):
            # The run degraded without a poll-time trip: a wall-budget
            # overrun the sampler never sampled still gets attributed.
            tripped = sentinel.check(None)
            if tripped is not None:
                self.metrics.add(f"serve.sentinel.trip.{tripped}")
            elif sentinel.deadline.expiry_reason is not None:
                tripped = sentinel.deadline.expiry_reason
        if tripped is not None:
            breaker.record_failure()
            response = dict(response)
            response["sentinel"] = tripped
        else:
            breaker.record_success()
        return response

    def _apply_chaos(
        self,
        query: Query,
        sentinel,
        graph: str,
        texts: list,
        options: RunOptions,
    ) -> None:
        """Fire this query's injected fault (chaos harness only).

        ``crash`` raises a :class:`WorkerCrashError` (the typed shape a
        real pool-worker death surfaces as); ``slow`` sleeps; ``hang``
        wedges until the sentinel's deadline releases it — exactly the
        runaway a production sentinel exists to cancel. Wire-level
        kinds (``corrupt``/``torn-socket``) are applied by the socket
        handler, not here.
        """
        chaos = query.request.get("_chaos")
        if chaos is None:
            return
        spec, attempt = chaos
        if spec.kind == "crash":
            exc = WorkerCrashError(
                f"injected chaos crash (attempt {attempt})",
                attempts=attempt + 1,
            )
            self._record_flight(
                query,
                graph,
                texts,
                options,
                status="error",
                error=f"WorkerCrashError: {exc}",
            )
            raise exc
        if spec.kind == "slow":
            time.sleep(spec.seconds)
        elif spec.kind == "hang":
            stop = sentinel.deadline if sentinel is not None else query.deadline
            if stop is None:
                raise ValueError(
                    "a 'hang' chaos fault needs a wall budget or deadline "
                    "to release it — configure one for this server"
                )
            while not stop.expired():
                time.sleep(0.005)

    def _run_query(
        self,
        query: Query,
        resident,
        texts: list,
        patterns: list,
        options: RunOptions,
        run_options: RunOptions,
        queue_wait: float,
    ) -> dict:
        """Cache check + session run + response build for one query."""
        use_cache = query.cache_key is not None
        if use_cache:
            hit = self._cached_response(query, queue_wait)
            if hit is not None:
                return hit
            self.metrics.add("serve.result_cache.misses")

        tracer = Tracer(
            tags={"query_id": query.query_id} if query.query_id else None
        )
        from repro.api import resolve_engine

        engine = resolve_engine(options.engine, fresh=True)
        try:
            with tracer.span(
                "serve.query",
                graph=resident.name,
                client=query.client,
                engine=options.engine,
                patterns=len(patterns),
            ):
                session = MorphingSession(
                    engine,
                    options=run_options.replace(
                        trace=tracer,
                        plan_cache=self.plan_cache,
                        cache=self.measurement_cache,
                    ),
                )
                result = session.run(resident.graph, patterns)
        except Exception as exc:
            # Retain the failure's trace before the scheduler converts
            # the exception into an error response.
            self._record_flight(
                query,
                resident.name,
                texts,
                options,
                status="error",
                error=f"{type(exc).__name__}: {exc}",
                queue_wait=queue_wait,
                tracer=tracer,
            )
            raise
        engine_label = str(options.engine)
        self.metrics.merge(tracer.metrics)
        self.metrics.add("serve.queries")
        self.metrics.observe(
            f"serve.stage.plan.{engine_label}", result.transform_seconds
        )
        self.metrics.observe(
            f"serve.stage.match.{engine_label}", result.match_seconds
        )
        self.metrics.observe(
            f"serve.stage.convert.{engine_label}", result.convert_seconds
        )
        self._observe_first_result(query)

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
        elif use_cache:
            # Partial results never enter the cache: a later identical
            # query without deadline pressure deserves the full answer.
            # The fresh query_id is stripped with the cached flag — a
            # repeat query gets its own id stamped on the hit path.
            entry = {
                k: v for k, v in response.items() if k not in ("cached", "query_id")
            }
            evicted = self._result_cache.insert(query.cache_key, entry)
            if evicted:
                self.metrics.add("serve.result_cache.evictions", evicted)
        self._record_flight(
            query,
            resident.name,
            texts,
            options,
            status="partial" if partial else "ok",
            queue_wait=queue_wait,
            tracer=tracer,
        )
        return response

    def _observe_first_result(self, query: Query) -> None:
        """Record admission-to-first-result latency for ``query``."""
        if query.submitted_at is None:
            return
        self.metrics.observe(
            "serve.latency.first_result",
            max(0.0, self.scheduler.clock() - query.submitted_at),
        )

    def _record_flight(
        self,
        query: Query,
        graph: str,
        texts: list,
        options: RunOptions,
        status: str,
        *,
        cached: bool = False,
        error: str | None = None,
        queue_wait: float = 0.0,
        tracer: Tracer | None = None,
    ) -> FlightRecord:
        """Retain one completed query in the flight recorder.

        The cost-model-based slowness verdict compares the selection
        audit's measured match seconds against its predicted cost
        scaled by the engine profile's calibrated ``unit_seconds`` —
        the same audit PR 3 emits offline, reused as an online SLO.
        """
        predicted_cost = predicted_seconds = measured_seconds = None
        if tracer is not None:
            selection = next(
                (
                    audit
                    for audit in tracer.audits
                    if getattr(audit, "role", None) == "selection"
                ),
                None,
            )
            if selection is not None:
                predicted_cost = float(selection.predicted_cost)
                predicted_seconds = (
                    predicted_cost * profile_for(str(options.engine)).unit_seconds
                )
                measured_seconds = float(selection.measured_seconds)
        seconds = 0.0
        if query.submitted_at is not None:
            seconds = max(0.0, self.scheduler.clock() - query.submitted_at)
        trace = None
        if tracer is not None:
            trace = RunTrace.from_tracer(
                tracer,
                query_id=query.query_id,
                client=query.client,
                graph=graph,
                engine=str(options.engine),
            )
        record = self.flight.record(
            FlightRecord(
                query_id=query.query_id or "",
                client=query.client,
                graph=graph,
                engine=str(options.engine),
                patterns=[str(t) for t in texts],
                status=status,
                cached=cached,
                seconds=seconds,
                queue_wait=queue_wait,
                predicted_cost=predicted_cost,
                predicted_seconds=predicted_seconds,
                measured_seconds=measured_seconds,
                error=error,
                trace=trace,
            )
        )
        if record.slow:
            self.metrics.add("serve.slow_queries")
        return record

    def _on_breaker_transition(self, cell: str, old: str, new: str) -> None:
        """Record one circuit-breaker state change (metric + anomaly)."""
        self.metrics.add(f"serve.breaker.transition.{new}")
        self.flight.note("breaker", f"{cell}: {old} -> {new}")

    # -- drain and warm restart ----------------------------------------------

    @property
    def drain_state(self) -> str:
        """Service lifecycle state: ``accepting``/``draining``/``closed``."""
        with self._lock:
            return self._drain_state

    def drain(self, dump_dir: str | None = None) -> dict:
        """Graceful stop: finish in-flight work, persist, then close.

        The SIGTERM path (and the ``drain`` op). State machine:
        ``accepting`` → ``draining`` (submissions rejected with
        ``rejected:draining``, queued/executing queries run to
        completion under ``drain_deadline_s``) → ``closed`` (listener
        down, every :class:`SharedGraphPayload` disposed). Before
        closing, the flight recorder is dumped (to ``dump_dir`` or a
        temp directory) and — when ``state_path`` is configured — the
        registry manifest and result-cache journal are saved so
        ``repro serve --resume`` reboots warm. Idempotent: a second
        call reports the current state without re-draining.
        """
        with self._lock:
            if self._drain_state != "accepting":
                return {"state": self._drain_state, "drained": False}
            self._drain_state = "draining"
        self.metrics.add("serve.drain.started")
        self.flight.note("drain", "drain started")
        self.scheduler.set_draining(True)
        deadline = Deadline(self.drain_deadline_s, clock=self.scheduler.clock)
        drained = True
        while self.scheduler.total_inflight() > 0:
            if deadline.expired():
                drained = False
                break
            time.sleep(0.01)
        summary: dict[str, Any] = {
            "drained": drained,
            "abandoned": self.scheduler.total_inflight(),
        }
        self.flight.note(
            "drain",
            "drained clean" if drained else
            f"drain deadline expired with {summary['abandoned']} in flight",
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
        with self._lock:
            self._drain_state = "closed"
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
            self._result_cache.insert(key, entry)
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
        """Bind the TCP listener and spin up the worker threads.

        Returns the bound ``(host, port)`` — with ``port=0`` the OS
        picks a free port, so parallel test runs never collide.
        """
        if self._tcp is not None:
            return self.host, self.port
        # Reclaim shared-memory segments a SIGKILLed predecessor daemon
        # left in /dev/shm (warns with the segment names).
        from repro.engines.execution import sweep_stale_segments

        swept = sweep_stale_segments()
        if swept:
            self.metrics.add("serve.segments.swept", len(swept))
        self._started = self.scheduler.clock()
        self._stop.clear()
        self._closed.clear()
        self._tcp = _TCPServer((self.host, self.port), _Handler, self)
        self.host, self.port = self._tcp.server_address[:2]
        listener = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-listener",
            daemon=True,
        )
        listener.start()
        self._threads = [listener]
        self._worker_threads = []
        for index in range(self.workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._worker_threads.append(worker)
        self._threads.extend(self._worker_threads)
        if self.sample_interval > 0:
            sampler = threading.Thread(
                target=self._sampler_loop,
                name="repro-serve-sampler",
                daemon=True,
            )
            sampler.start()
            self._threads.append(sampler)
        return self.host, self.port

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            if not self.scheduler.run_next(self._execute, timeout=0.1):
                continue

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
        return self._closed.wait(timeout)

    def _track_connection(self, connection: socket.socket) -> None:
        """Register an accepted connection until its handler closes it."""
        self.metrics.add("serve.connections.opened")
        with self._lock:
            self._connections.add(connection)

    def _untrack_connection(self, connection: socket.socket) -> None:
        with self._lock:
            self._connections.discard(connection)

    def close(self) -> None:
        """Stop listening, hang up live connections, drain workers,
        release graphs and segments.

        Clients keep their connections open between requests, so a
        closed daemon must hang them up: otherwise their handler threads
        would go on answering. Idempotent and safe to race: the shutdown
        op's handler thread and the ``repro serve`` main loop both call
        it.
        """
        self._stop.set()
        self._closed.set()
        with self._lock:
            tcp, self._tcp = self._tcp, None
            self._drain_state = "closed"
        if tcp is not None:
            tcp.shutdown()
            tcp.server_close()
        # The listener is down, so the set can no longer grow.
        with self._lock:
            connections, self._connections = self._connections, set()
        for connection in connections:
            _hang_up(connection)
        self.scheduler.close()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5)
        self._threads = []
        self._worker_threads = []
        self.registry.close()

    def __enter__(self) -> "MiningServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _hang_up(connection: socket.socket) -> None:
    """End both directions of ``connection``; its handler sees EOF."""
    try:
        connection.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already gone


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

    Protocol errors are *answered*, not dropped: a torn or non-JSON
    request line gets a typed ``protocol-error`` response (and a
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
            try:
                request = protocol.read_message(self.rfile)
            except (ConnectionError, socket.error):
                break
            except ValueError as exc:
                # Malformed request line (bad JSON, non-object, torn
                # UTF-8): typed response, anomaly, then hang up.
                server.metrics.add("serve.protocol.errors")
                server.flight.note(
                    "protocol-error", f"{type(exc).__name__}: {exc}"
                )
                try:
                    protocol.write_message(
                        self.wfile,
                        {
                            "ok": False,
                            "error": (
                                "protocol-error: request line is not a "
                                f"JSON object ({type(exc).__name__}: {exc})"
                            ),
                        },
                    )
                except (ConnectionError, socket.error, BrokenPipeError):
                    pass
                break
            if request is None:
                break
            response = server.handle(request)
            wire_fault = None
            if isinstance(response, dict):
                wire_fault = response.pop("_chaos_wire", None)
            if wire_fault == "torn-socket":
                # Chaos harness: drop the connection without answering.
                break
            try:
                if wire_fault == "corrupt":
                    # Chaos harness: an unparsable response line.
                    self.wfile.write(b"\x00corrupted-response-frame\n")
                    self.wfile.flush()
                else:
                    protocol.write_message(self.wfile, response)
            except (ConnectionError, socket.error, BrokenPipeError):
                break
            if request.get("op") == "shutdown":
                # The ack is on the wire; now the daemon may die.
                threading.Thread(target=server.close, daemon=True).start()
                break
            if request.get("op") == "drain":
                # Ack flushed; drain (and eventually close) off-thread.
                threading.Thread(target=server.drain, daemon=True).start()
                break
