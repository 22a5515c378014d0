"""Query gate: admission, priorities, deadlines and execution slots.

The daemon multiplexes one machine across many clients, so "just run
everything immediately" degrades into thrash exactly when the service
is most loaded. The scheduler makes the contention policy explicit:

* **admission** (:class:`AdmissionPolicy`) decides *at submit time*
  whether a query may queue at all — bounded queue depth, a per-client
  in-flight cap, and a deadline feasibility check (a query whose
  deadline will expire before it can plausibly start is rejected now,
  not after wasting a slot);
* **slots** bound how many queries execute at once. A query runs on
  the thread that submitted it: :meth:`QueryScheduler.acquire` blocks
  that thread until the query is granted a slot, and
  :meth:`QueryScheduler.release` hands the slot to the next queued
  query. ``slots=0`` means no bound;
* **ordering** is a strict priority queue (higher ``priority`` first,
  FIFO within a priority level), pre-empted only by queries whose
  deadline cannot wait any longer;
* **deadlines** are re-checked at grant (reusing
  :class:`repro.Deadline`, clock injectable), so a query that queued
  fine but aged out while waiting is refused without running.

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
    """One scheduled unit of work: a request and its walk's state.

    The thread that read the request walks it from admission to its
    answer; the scheduler only stamps it (timestamps, a slot, or the
    refusal that ends its wait).
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
        #: for the request, its circuit-breaker cell, the sentinel
        #: watching it while it holds a slot, its tracer and the
        #: session's ``RunTrace`` of it (misses only), the answer or
        #: error so far, the session's phase seconds, and a
        #: ``(stage, start, end)`` mark per stage walked.
        self.fault = None
        self.breaker = None
        self.sentinel = None
        self.tracer = None
        self.trace = None
        self.answer: dict | None = None
        self.error: Exception | None = None
        self.phases: tuple[tuple[str, float], ...] = ()
        self.marks: list[tuple[str, float, float]] = []
        #: Backoff hint stamped by the shed controller on an
        #: ``rejected:overload`` verdict (``None`` otherwise).
        self.retry_after_s: float | None = None
        #: Scheduler-clock timestamps, stamped by the scheduler: at
        #: admission, at grant (or refusal) off the queue, and at
        #: release. They feed the queue-wait and end-to-end latency
        #: histograms.
        self.submitted_at: float | None = None
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: Whether the query holds an execution slot, and the answer
        #: that ended its wait for one instead (both written by the
        #: scheduler under its lock).
        self.holds_slot = False
        self.refusal: dict | None = None

    @property
    def queue_wait(self) -> float:
        """Seconds from admission to grant (``0.0`` if never queued)."""
        if self.submitted_at is None or self.started_at is None:
            return 0.0
        return max(0.0, self.started_at - self.submitted_at)


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
    """Thread-safe priority gate with admission control.

    ``slots`` bounds the queries that hold an execution slot at once
    (``0``: no bound). ``clock`` is injectable (like
    :class:`repro.Deadline`'s) so tests drive deadline behavior
    deterministically. The scheduler runs nothing and starts no thread:
    a caller :meth:`submit` s a query, :meth:`acquire` s its slot,
    executes it and :meth:`release` s the slot; unit tests drive the
    same calls from one thread.
    """

    def __init__(
        self,
        policy: AdmissionPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
        shed: ShedController | None = None,
        slots: int = 0,
    ) -> None:
        if slots < 0:
            raise ValueError(f"slots must be >= 0, got {slots!r}")
        self.policy = policy or AdmissionPolicy()
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Optional overload gate consulted before the admission policy.
        self.shed = shed
        self.slots = slots
        self._running = 0
        self._heap: list[tuple[int, int, Query]] = []
        self._seq = 0
        self._inflight: dict[str, int] = {}
        self._lock = threading.Lock()
        #: Notified whenever a queued query is granted or refused.
        self._settled = threading.Condition(self._lock)
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
        """Admit-or-reject ``query``; an accepted query is queued, and
        granted a slot at once if one is free.

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
                self._grant_locked()
        self.metrics.add(f"serve.admission.{verdict.replace(':', '.')}")
        return verdict

    # -- slots ---------------------------------------------------------------

    def acquire(self, query: Query) -> dict | None:
        """Block until the submitted ``query`` holds a slot (``None``)
        or is refused: the refusal's response, ``rejected:deadline``
        when its deadline passed while it queued, or ``scheduler
        closed``."""
        with self._settled:
            self._settled.wait_for(
                lambda: query.holds_slot or query.refusal is not None
            )
        return query.refusal

    def release(self, query: Query) -> None:
        """Give back the slot ``query`` holds and grant the next queued
        queries; the client's in-flight charge ends here."""
        with self._lock:
            query.finished_at = self.clock()
            if query.holds_slot:
                query.holds_slot = False
                self._running -= 1
            self._uncharge_locked(query)
            self._grant_locked()

    def _grant_locked(self) -> None:
        """Hand free slots to queued queries in dispatch order (caller
        holds the lock). A query whose deadline expired while it queued
        is refused here and never runs."""
        while self._heap and (not self.slots or self._running < self.slots):
            query = self._pop_locked()
            query.started_at = self.clock()
            self.metrics.sample_window("serve.queue.depth", len(self._heap))
            self._settled.notify_all()
            if query.deadline is not None and query.deadline.expired():
                self.metrics.add("serve.admission.rejected.deadline")
                self._uncharge_locked(query)
                query.finished_at = query.started_at
                query.refusal = {
                    "ok": False,
                    "error": REJECTED_DEADLINE,
                    "admission": REJECTED_DEADLINE,
                }
                if query.query_id is not None:
                    query.refusal["query_id"] = query.query_id
                continue
            query.holds_slot = True
            self._running += 1

    def _pop_locked(self) -> Query:
        """Pop the next query to grant (caller holds the lock).

        Normally strict priority order — but a queued query whose
        deadline has less headroom than one estimated service time is
        *urgent*: unless it starts now it will expire while waiting, so
        it pre-empts priority order (earliest-submitted urgent query
        first). This is the anti-starvation guarantee: a stream of
        high-priority arrivals cannot hold a feasible low-priority
        query past its deadline. Already-expired queries are not urgent
        (the grant-time deadline check refuses them), and with
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

    def _uncharge_locked(self, query: Query) -> None:
        count = self._inflight.get(query.client, 0) - 1
        if count <= 0:
            self._inflight.pop(query.client, None)
        else:
            self._inflight[query.client] = count

    # -- lifecycle -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of queries waiting for a slot."""
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
        released its slot and the daemon may stop.
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

    def close(self) -> None:
        """Refuse everything still queued and wake its waiting threads;
        queries holding a slot run on."""
        with self._lock:
            self.state = "closed"
            for _, _, query in self._heap:
                self._uncharge_locked(query)
                query.refusal = {"ok": False, "error": "scheduler closed"}
            self._heap.clear()
            self.metrics.sample_window("serve.queue.depth", 0)
            self._settled.notify_all()

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
