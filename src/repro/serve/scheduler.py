"""Query queue: priorities, per-client limits, deadline-aware admission.

The daemon multiplexes one machine across many clients, so "just run
everything immediately" degrades into thrash exactly when the service
is most loaded. The scheduler makes the contention policy explicit:

* **admission** (:class:`AdmissionPolicy`) decides *at submit time*
  whether a query may queue at all — bounded queue depth, a per-client
  in-flight cap, and a deadline feasibility check (a query whose
  deadline will expire before it can plausibly start is rejected now,
  not after wasting a slot);
* **ordering** is a strict priority queue (higher ``priority`` first,
  FIFO within a priority level);
* **deadlines** are re-checked at dispatch (reusing
  :class:`repro.Deadline`, clock injectable), so a query that queued
  fine but aged out while waiting is dropped without running.

Every verdict lands in the metrics registry
(``serve.admission.accepted`` / ``serve.admission.rejected.<reason>``)
and the live depth in the ``serve.queue.depth`` gauge — recorded
through a :class:`~repro.observe.histogram.WindowGauge` on every queue
transition *and* by the server's periodic sampler, so a stats snapshot
reports the depth's min/max envelope since the previous snapshot, not
just whatever the depth was at the last admission.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Any, Callable

from repro.engines.recovery import Deadline
from repro.observe.metrics import MetricsRegistry
from repro.serve.shed import REJECTED_OVERLOAD, ShedController

__all__ = ["AdmissionPolicy", "Query", "QueryScheduler"]

#: Admission verdicts (the ``rejected:*`` forms are also wire errors).
ACCEPTED = "accepted"
REJECTED_QUEUE_FULL = "rejected:queue-full"
REJECTED_CLIENT_LIMIT = "rejected:client-limit"
REJECTED_DEADLINE = "rejected:deadline"
REJECTED_DRAINING = "rejected:draining"


class Query:
    """One scheduled unit of work: a request plus its completion slot.

    The submitting thread waits on :meth:`wait`; whichever worker
    executes the query publishes through :meth:`finish`.
    """

    def __init__(
        self,
        request: dict,
        client: str = "anonymous",
        priority: int = 0,
        deadline: Deadline | None = None,
        query_id: str | None = None,
    ) -> None:
        self.request = request
        self.client = client
        self.priority = priority
        self.deadline = deadline
        #: Server-minted id propagated through spans, responses and the
        #: flight recorder (``None`` for bare scheduler-level use).
        self.query_id = query_id
        #: The request's parsed ``RunOptions`` and its result-cache key
        #: (``None`` when it bypasses the cache), stamped by the server
        #: once at admission so no later stage parses them again.
        self.options = None
        self.cache_key: tuple | None = None
        #: What the server's stages hand each other along one walk
        #: (:data:`repro.serve.server.STAGES`): the chaos fault drawn
        #: for the request, the sentinel watching it on the worker, its
        #: tracer (misses only), the answer or error so far, the
        #: session's phase seconds, and a ``(stage, start, end)`` mark
        #: per stage walked.
        self.fault = None
        self.sentinel = None
        self.tracer = None
        self.answer: dict | None = None
        self.error: Exception | None = None
        self.phases: tuple[tuple[str, float], ...] = ()
        self.marks: list[tuple[str, float, float]] = []
        self.response: dict | None = None
        #: Backoff hint stamped by the shed controller on an
        #: ``rejected:overload`` verdict (``None`` otherwise).
        self.retry_after_s: float | None = None
        #: Scheduler-clock timestamps, stamped by the scheduler: at
        #: admission, at dispatch to a worker, and at completion. They
        #: feed the queue-wait and end-to-end latency histograms.
        self.submitted_at: float | None = None
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._done = threading.Event()

    @property
    def queue_wait(self) -> float:
        """Seconds from admission to dispatch (``0.0`` if never queued)."""
        if self.submitted_at is None or self.started_at is None:
            return 0.0
        return max(0.0, self.started_at - self.submitted_at)

    def finish(self, response: dict) -> None:
        """Publish the response and wake the waiting submitter."""
        self.response = response
        self._done.set()

    def wait(self, timeout: float | None = None) -> dict | None:
        """Block until :meth:`finish`; ``None`` on timeout."""
        if not self._done.wait(timeout):
            return None
        return self.response


class AdmissionPolicy:
    """Submit-time gate: queue depth, per-client cap, deadline headroom.

    ``estimated_service_seconds`` (optional) enables the feasibility
    check: with the queue ``d`` deep, a new query waits roughly
    ``d * estimate`` before starting, so a deadline with less remaining
    headroom than that is unmeetable and the query is rejected upfront.
    ``0`` (the default) disables the estimate and only rejects
    already-expired deadlines.
    """

    def __init__(
        self,
        max_queue_depth: int = 64,
        max_per_client: int = 4,
        estimated_service_seconds: float = 0.0,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth!r}")
        if max_per_client < 1:
            raise ValueError(f"max_per_client must be >= 1, got {max_per_client!r}")
        self.max_queue_depth = max_queue_depth
        self.max_per_client = max_per_client
        self.estimated_service_seconds = estimated_service_seconds

    def admit(self, query: Query, queue_depth: int, client_inflight: int) -> str:
        """The verdict for submitting ``query`` against current load."""
        if queue_depth >= self.max_queue_depth:
            return REJECTED_QUEUE_FULL
        if client_inflight >= self.max_per_client:
            return REJECTED_CLIENT_LIMIT
        if query.deadline is not None:
            wait_estimate = queue_depth * self.estimated_service_seconds
            if query.deadline.expired() or query.deadline.remaining() < wait_estimate:
                return REJECTED_DEADLINE
        return ACCEPTED


class QueryScheduler:
    """Thread-safe priority queue with admission control.

    ``clock`` is injectable (like :class:`repro.Deadline`'s) so tests
    drive deadline behavior deterministically. The scheduler itself is
    thread-less: the server's worker threads call :meth:`next_query` /
    :meth:`run_next`, and unit tests can drain the queue synchronously
    without any server at all.
    """

    def __init__(
        self,
        policy: AdmissionPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
        shed: ShedController | None = None,
    ) -> None:
        self.policy = policy or AdmissionPolicy()
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Optional overload gate consulted before the admission policy.
        self.shed = shed
        self._heap: list[tuple[int, int, Query]] = []
        self._seq = 0
        self._inflight: dict[str, int] = {}
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        #: The service lifecycle, ``accepting`` → ``draining`` →
        #: ``closed`` (or straight to ``closed``): its one record, which
        #: the server's ``drain_state`` and ``admit`` stage read. Written
        #: under the lock, read without it.
        self.state = "accepting"

    # -- submit --------------------------------------------------------------

    def make_deadline(self, seconds: float | None) -> Deadline | None:
        """A :class:`repro.Deadline` on this scheduler's clock."""
        if seconds is None:
            return None
        return Deadline(seconds, clock=self.clock)

    def submit(self, query: Query) -> str:
        """Admit-or-reject ``query``; an accepted query is queued.

        Returns the verdict string. In-flight accounting covers both
        queued and executing queries of a client, so ``max_per_client``
        bounds a client's total footprint on the daemon.
        """
        with self._lock:
            if self.state != "accepting":
                verdict = REJECTED_DRAINING
            else:
                verdict = self.policy.admit(
                    query,
                    queue_depth=len(self._heap),
                    client_inflight=self._inflight.get(query.client, 0),
                )
            if verdict == ACCEPTED and self.shed is not None:
                decision = self.shed.evaluate(
                    priority=query.priority, queue_depth=len(self._heap)
                )
                if decision.shed:
                    verdict = REJECTED_OVERLOAD
                    query.retry_after_s = decision.retry_after_s
                    self.metrics.add(
                        f"serve.shed.{(decision.reason or 'unknown')}"
                    )
            if verdict == ACCEPTED:
                query.submitted_at = self.clock()
                self._inflight[query.client] = self._inflight.get(query.client, 0) + 1
                heapq.heappush(self._heap, (-query.priority, self._seq, query))
                self._seq += 1
                self.metrics.sample_window("serve.queue.depth", len(self._heap))
                self._available.notify()
        self.metrics.add(f"serve.admission.{verdict.replace(':', '.')}")
        return verdict

    # -- dispatch ------------------------------------------------------------

    def next_query(self, timeout: float | None = 0) -> Query | None:
        """Pop the highest-priority query; ``None`` when empty/closed.

        ``timeout=0`` polls; ``None`` blocks until work or close.
        Queries whose deadline expired while queued are finished with a
        ``rejected:deadline`` error here and never reach a worker.
        """
        while True:
            with self._lock:
                if not self._heap and timeout != 0:
                    self._available.wait_for(
                        lambda: self._heap or self.state == "closed",
                        timeout=timeout,
                    )
                if not self._heap:
                    return None
                query = self._pop_locked()
                query.started_at = self.clock()
                self.metrics.sample_window("serve.queue.depth", len(self._heap))
            if query.deadline is not None and query.deadline.expired():
                self.metrics.add("serve.admission.rejected.deadline")
                self._release(query)
                response = {
                    "ok": False,
                    "error": REJECTED_DEADLINE,
                    "admission": REJECTED_DEADLINE,
                }
                if query.query_id is not None:
                    response["query_id"] = query.query_id
                query.finished_at = self.clock()
                query.finish(response)
                continue
            return query

    def _pop_locked(self) -> Query:
        """Pop the next query to dispatch (caller holds the lock).

        Normally strict priority order — but a queued query whose
        deadline has less headroom than one estimated service time is
        *urgent*: unless it starts now it will expire while waiting, so
        it pre-empts priority order (earliest-submitted urgent query
        first). This is the anti-starvation guarantee: a stream of
        high-priority arrivals cannot hold a feasible low-priority
        query past its deadline. Already-expired queries are not urgent
        (the post-pop deadline check rejects them as before), and with
        ``estimated_service_seconds == 0`` the scan never fires.
        """
        estimate = self.policy.estimated_service_seconds
        if estimate > 0:
            urgent_pos: int | None = None
            for pos, (_, seq, queued) in enumerate(self._heap):
                if queued.deadline is None or queued.deadline.expired():
                    continue
                if queued.deadline.remaining() > estimate:
                    continue
                if urgent_pos is None or seq < self._heap[urgent_pos][1]:
                    urgent_pos = pos
            if urgent_pos is not None:
                _, _, query = self._heap[urgent_pos]
                self._heap[urgent_pos] = self._heap[-1]
                self._heap.pop()
                heapq.heapify(self._heap)
                self.metrics.add("serve.scheduler.urgent_dispatch")
                return query
        return heapq.heappop(self._heap)[2]

    def run_next(self, execute: Callable[[Query], dict], timeout: float | None = 0) -> bool:
        """Synchronously execute one queued query (worker loop body).

        Returns ``False`` when no query was available. Exceptions from
        ``execute`` become error responses, never worker crashes.
        """
        query = self.next_query(timeout=timeout)
        if query is None:
            return False
        try:
            response = execute(query)
        except Exception as exc:  # noqa: BLE001 - workers must not die
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            if query.query_id is not None:
                response["query_id"] = query.query_id
        finally:
            self._release(query)
        query.finished_at = self.clock()
        query.finish(response)
        return True

    def _release(self, query: Query) -> None:
        with self._lock:
            count = self._inflight.get(query.client, 0) - 1
            if count <= 0:
                self._inflight.pop(query.client, None)
            else:
                self._inflight[query.client] = count

    # -- lifecycle -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of queries currently queued (not executing)."""
        with self._lock:
            return len(self._heap)

    def sample_depth(self) -> int:
        """Record the current depth into the ``serve.queue.depth`` window.

        Transitions (submit/pop/close) already sample; this adds
        *time-based* samples so the window's min/max envelope is honest
        even across a quiet-then-bursty interval — the server's sampler
        thread calls it periodically.
        """
        with self._lock:
            depth = len(self._heap)
            self.metrics.sample_window("serve.queue.depth", depth)
            return depth

    def inflight(self, client: str) -> int:
        """Queued + executing queries charged to ``client``."""
        with self._lock:
            return self._inflight.get(client, 0)

    def total_inflight(self) -> int:
        """Queued + executing queries across every client.

        The drain loop polls this: zero means every admitted query has
        published its response and the daemon may stop.
        """
        with self._lock:
            return sum(self._inflight.values())

    def set_draining(self, draining: bool = True) -> bool:
        """Enter (or leave) drain mode: submissions are rejected with
        ``rejected:draining`` while queued/executing work proceeds.

        Returns whether the state changed: only an accepting scheduler
        starts draining, and a closed one stays closed.
        """
        with self._lock:
            before = self.state
            if before == ("accepting" if draining else "draining"):
                self.state = "draining" if draining else "accepting"
            return self.state != before

    @property
    def draining(self) -> bool:
        """Whether new submissions are being rejected for drain."""
        return self.state == "draining"

    def close(self) -> None:
        """Reject everything still queued and wake blocked workers."""
        with self._lock:
            self.state = "closed"
            pending = [query for _, _, query in self._heap]
            self._heap.clear()
            self.metrics.sample_window("serve.queue.depth", 0)
            self._available.notify_all()
        for query in pending:
            self._release(query)
            query.finish({"ok": False, "error": "scheduler closed"})

    def snapshot(self) -> dict[str, Any]:
        """Wire-safe scheduler state for the ``stats`` op."""
        with self._lock:
            return {
                "depth": len(self._heap),
                "inflight": dict(self._inflight),
                "max_queue_depth": self.policy.max_queue_depth,
                "max_per_client": self.policy.max_per_client,
                "draining": self.state == "draining",
            }
