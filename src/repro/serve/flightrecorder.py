"""Flight recorder: the last N query traces, anomalies kept forever.

Post-hoc debugging of a live daemon has a retention problem: keeping
every query's full span tree is unbounded, keeping none means the one
query you care about — the 3 a.m. timeout — is gone by the time anyone
looks. The flight recorder splits the difference the way avionics do:

* a bounded **ring buffer** holds the most recent completed queries
  (trace and all), so "what just happened" is always answerable;
* a separately bounded **anomaly set** holds queries that erred,
  returned a :class:`~repro.morph.session.PartialRunResult`, or ran
  *slow against their own cost model* — measured match time exceeding
  ``k×`` the plan-predicted time (Algorithm 1's prediction scaled by
  the engine's calibrated ``unit_seconds``). Anomalies survive ring
  eviction, so a burst of healthy traffic cannot flush the evidence.

:meth:`FlightRecorder.dump` writes every retained trace as JSONL plus
Chrome ``trace_event`` JSON (one pair per query id, plus an
``index.json`` of summaries) — wired to the daemon's ``dump`` op and
its ``SIGUSR1`` handler, so an operator can snapshot a misbehaving
service without restarting it.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.observe.export import RunTrace, write_chrome_trace, write_jsonl

__all__ = ["FlightRecord", "FlightRecorder"]

#: Default ring capacity (recent queries) and anomaly retention.
DEFAULT_CAPACITY = 64
DEFAULT_ANOMALY_CAPACITY = 32
#: Default slowness threshold: measured match seconds > k× predicted.
DEFAULT_SLOW_FACTOR = 8.0


@dataclass
class FlightRecord:
    """One completed query as the flight recorder retains it."""

    query_id: str
    client: str
    graph: str
    engine: str
    patterns: list[str]
    #: ``"ok"``, ``"partial"`` or ``"error"``.
    status: str
    #: ``True`` when answered from the result cache (no trace).
    cached: bool = False
    #: End-to-end seconds (submit → response published).
    seconds: float = 0.0
    #: Seconds spent queued before the query was granted a slot.
    queue_wait: float = 0.0
    #: Algorithm 1's predicted cost for the selected set (units).
    predicted_cost: float | None = None
    #: The prediction converted to seconds via the engine profile.
    predicted_seconds: float | None = None
    #: Measured match seconds for the same set.
    measured_seconds: float | None = None
    #: ``measured / predicted`` (``None`` when no prediction exists).
    cost_ratio: float | None = None
    #: ``True`` when ``cost_ratio`` exceeded the recorder's threshold.
    slow: bool = False
    error: str | None = None
    #: Full span tree (``None`` for cache hits and failed admissions).
    trace: RunTrace | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def anomalous(self) -> bool:
        """Errors, partial answers and cost-model-slow queries qualify."""
        return self.status != "ok" or self.slow

    def describe(self) -> dict[str, Any]:
        """Wire-safe summary (everything but the span tree)."""
        return {
            "query_id": self.query_id,
            "client": self.client,
            "graph": self.graph,
            "engine": self.engine,
            "patterns": list(self.patterns),
            "status": self.status,
            "cached": self.cached,
            "seconds": self.seconds,
            "queue_wait": self.queue_wait,
            "predicted_cost": self.predicted_cost,
            "predicted_seconds": self.predicted_seconds,
            "measured_seconds": self.measured_seconds,
            "cost_ratio": self.cost_ratio,
            "slow": self.slow,
            "error": self.error,
            "has_trace": self.trace is not None,
        }


class FlightRecorder:
    """Bounded retention of completed query records (thread-safe).

    ``slow_factor`` is the online SLO threshold: a query whose measured
    match time exceeds ``slow_factor ×`` its plan-predicted time is
    classified slow by :meth:`classify` and retained as an anomaly.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        anomaly_capacity: int = DEFAULT_ANOMALY_CAPACITY,
        slow_factor: float = DEFAULT_SLOW_FACTOR,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        if anomaly_capacity < 1:
            raise ValueError(
                f"anomaly_capacity must be >= 1, got {anomaly_capacity!r}"
            )
        if slow_factor <= 0:
            raise ValueError(f"slow_factor must be > 0, got {slow_factor!r}")
        self.capacity = capacity
        self.anomaly_capacity = anomaly_capacity
        self.slow_factor = slow_factor
        self._recent: deque[FlightRecord] = deque(maxlen=capacity)
        self._anomalies: deque[FlightRecord] = deque(maxlen=anomaly_capacity)
        self._recorded = 0
        self._events = 0
        self._lock = threading.Lock()

    # -- classification ----------------------------------------------------

    def classify(self, record: FlightRecord) -> FlightRecord:
        """Stamp ``cost_ratio``/``slow`` from the record's cost fields."""
        if (
            record.predicted_seconds
            and record.predicted_seconds > 0
            and record.measured_seconds is not None
        ):
            record.cost_ratio = record.measured_seconds / record.predicted_seconds
            record.slow = record.cost_ratio > self.slow_factor
        return record

    # -- write -------------------------------------------------------------

    def record(self, record: FlightRecord) -> FlightRecord:
        """Classify and retain one completed query."""
        self.classify(record)
        with self._lock:
            self._recorded += 1
            self._recent.append(record)
            if record.anomalous:
                self._anomalies.append(record)
        return record

    def note(
        self,
        event: str,
        detail: str = "",
        *,
        graph: str = "",
        engine: str = "",
        extra: dict[str, Any] | None = None,
    ) -> FlightRecord:
        """Retain a synthetic service event as an anomaly.

        Not every anomaly is a query: breaker transitions, protocol
        errors on the wire, drain milestones. ``note`` wraps the event
        in a traceless :class:`FlightRecord` with ``status="event"``
        (anomalous by construction, so it lands in the anomaly ring and
        survives healthy traffic) under a server-minted ``evt-*`` id.
        """
        with self._lock:
            self._events += 1
            event_id = f"evt-{self._events:05d}"
        return self.record(
            FlightRecord(
                query_id=event_id,
                client="daemon",
                graph=graph,
                engine=engine,
                patterns=[],
                status="event",
                error=f"{event}: {detail}" if detail else event,
                extra=dict(extra or {}),
            )
        )

    # -- read --------------------------------------------------------------

    def recent(self, n: int | None = None) -> list[FlightRecord]:
        """The most recent records, oldest first (all by default)."""
        with self._lock:
            records = list(self._recent)
        return records if n is None else records[-n:]

    def anomalies(self, n: int | None = None) -> list[FlightRecord]:
        """Retained anomalies, oldest first (all by default)."""
        with self._lock:
            records = list(self._anomalies)
        return records if n is None else records[-n:]

    def find(self, query_id: str) -> FlightRecord | None:
        """Look a query up by id (anomaly set first, then the ring)."""
        with self._lock:
            for record in reversed(self._anomalies):
                if record.query_id == query_id:
                    return record
            for record in reversed(self._recent):
                if record.query_id == query_id:
                    return record
        return None

    def occupancy(self) -> dict[str, Any]:
        """Wire-safe occupancy summary for the ``stats`` op."""
        with self._lock:
            return {
                "recorded": self._recorded,
                "recent": len(self._recent),
                "capacity": self.capacity,
                "anomalies": len(self._anomalies),
                "anomaly_capacity": self.anomaly_capacity,
                "slow_factor": self.slow_factor,
            }

    # -- dump --------------------------------------------------------------

    def dump(self, directory: str) -> list[str]:
        """Write every retained trace to ``directory``; returns the paths.

        Per traced query: ``<query_id>.trace.jsonl`` (the portable
        JSONL form) and ``<query_id>.chrome.json`` (Chrome/Perfetto
        ``trace_event``). An ``index.json`` lists every retained
        record's summary with anomalies flagged. Records without a
        trace (cache hits) appear in the index only.
        """
        os.makedirs(directory, exist_ok=True)
        with self._lock:
            anomaly_ids = {r.query_id for r in self._anomalies}
            # dict keyed by id dedups queries present in both buffers.
            records = {r.query_id: r for r in self._recent}
            records.update({r.query_id: r for r in self._anomalies})
        paths: list[str] = []
        index = []
        for query_id, record in sorted(records.items()):
            summary = record.describe()
            summary["anomaly"] = query_id in anomaly_ids
            index.append(summary)
            if record.trace is None:
                continue
            jsonl_path = os.path.join(directory, f"{query_id}.trace.jsonl")
            chrome_path = os.path.join(directory, f"{query_id}.chrome.json")
            write_jsonl(record.trace, jsonl_path)
            write_chrome_trace(record.trace, chrome_path)
            paths.extend([jsonl_path, chrome_path])
        index_path = os.path.join(directory, "index.json")
        with open(index_path, "w", encoding="utf-8") as fh:
            json.dump({"records": index}, fh, indent=2, sort_keys=True)
        paths.append(index_path)
        return paths

    def __len__(self) -> int:
        with self._lock:
            return len(self._recent)
