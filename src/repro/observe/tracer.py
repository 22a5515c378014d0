"""Low-overhead span tracer for structured run telemetry.

A :class:`Span` is one timed interval with a name, a parent, and a flat
attribute dict; a :class:`Tracer` records spans on a stack so nested
``with tracer.span(...)`` blocks form a tree (transform → selection,
match → per-item → per-shard → kernel, convert). Design constraints,
in priority order:

1. **Zero cost when off.** Nothing in this module runs unless a caller
   holds a live ``Tracer``; instrumented code guards with a plain
   ``tracer is None`` test and the kernels sample their existing
   :class:`~repro.engines.setops.SetOpStats` counters instead of
   tracing individual set operations (one span per kernel invocation,
   counter deltas as attributes — the hot loop never allocates).
2. **Deterministic reconciliation.** Phase spans are the *same* timer
   the session reports: ``MorphRunResult.transform_seconds`` is the
   transform span's duration, so trace and result always agree.
3. **Cross-thread stitching.** Shard threads trace into their own
   ``Tracer`` and hand ``Span`` lists back; :meth:`Tracer.adopt`
   re-ids them, re-parents them under the current span and clamps
   child intervals into the parent window, so the nesting invariant
   (every child interval inside its parent) holds by construction.

Timestamps are ``time.perf_counter()`` seconds, one clock for every
thread of the process, so shard spans sit on the parent's timeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Span", "Tracer", "timed_span"]


@dataclass(slots=True)
class Span:
    """One timed interval in a run's trace tree."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Duration (0.0 while the span is still open)."""
        return max(0.0, self.end - self.start)

    def to_json(self) -> dict[str, Any]:
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attributes": self.attributes,
        }

    @classmethod
    def from_json(cls, record: dict[str, Any]) -> "Span":
        return cls(
            span_id=int(record["span_id"]),
            parent_id=(
                int(record["parent_id"]) if record["parent_id"] is not None else None
            ),
            name=str(record["name"]),
            start=float(record["start"]),
            end=float(record["end"]),
            attributes=dict(record.get("attributes", {})),
        )


class Tracer:
    """Records a tree of spans plus run-level metrics and audit records.

    One tracer serves one run. It is deliberately not thread-safe: the
    session and the engines it drives share one thread, and shard
    threads record into their *own* tracer whose spans are adopted
    afterwards (:meth:`adopt`).
    """

    def __init__(self, tags: dict[str, Any] | None = None) -> None:
        from repro.observe.metrics import MetricsRegistry

        self.spans: list[Span] = []
        self.audits: list[Any] = []  # CostAuditRecord, kept loose for pickling
        self.metrics = MetricsRegistry()
        #: Attributes stamped into *every* span this tracer records or
        #: adopts — the propagation mechanism for per-query context
        #: (the daemon sets ``{"query_id": ...}`` so a query's whole
        #: span tree, including worker shards, carries its id).
        self.tags: dict[str, Any] = dict(tags) if tags else {}
        self._stack: list[int] = []
        self._next_id = 1

    # -- recording ---------------------------------------------------------

    def _new_span(self, name: str, attributes: dict[str, Any]) -> Span:
        if self.tags:
            attributes = {**self.tags, **attributes}
        span = Span(
            self._next_id,
            self._stack[-1] if self._stack else None,
            name,
            time.perf_counter(),
            0.0,
            attributes,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def span(self, name: str, **attributes: Any) -> "timed_span":
        """Open a child span of the current span for the ``with`` body."""
        return timed_span(self, name, **attributes)

    def add(self, name: str, start: float, end: float, **attributes: Any) -> Span:
        """Record a span timed elsewhere (``perf_counter`` seconds), as a
        child of the current span: a step that ran before this tracer
        existed."""
        span = self._new_span(name, attributes)
        span.start, span.end = start, end
        return span

    def current_span_id(self) -> int | None:
        """Id of the innermost open span (``None`` at the root)."""
        return self._stack[-1] if self._stack else None

    def audit(self, record: Any) -> None:
        """Attach a cost-model audit record to the trace."""
        self.audits.append(record)

    # -- cross-thread stitching -------------------------------------------

    def adopt(self, spans: list[Span], clamp: bool = True) -> None:
        """Graft foreign spans (a worker's trace) under the current span.

        Ids are remapped into this tracer's sequence with internal
        parent links preserved; roots of the foreign forest become
        children of the currently open span. With ``clamp`` (the
        default) every adopted interval is clipped into its new
        parent's live window, preserving the nesting invariant across
        clock domains. This tracer's :attr:`tags` are stamped into
        every adopted span (the span's own attributes win on
        collision), so per-query context survives the worker hop.
        """
        if not spans:
            return
        parent_id = self.current_span_id()
        lo = hi = None
        if clamp and parent_id is not None:
            parent = next(s for s in self.spans if s.span_id == parent_id)
            lo, hi = parent.start, time.perf_counter()
        id_map: dict[int, int] = {}
        for span in spans:
            id_map[span.span_id] = self._next_id
            self._next_id += 1
        for span in spans:
            new_parent = (
                id_map[span.parent_id]
                if span.parent_id in id_map
                else parent_id
            )
            start, end = span.start, span.end
            if lo is not None:
                start = min(max(start, lo), hi)
                end = min(max(end, lo), hi)
            attributes = dict(span.attributes)
            if self.tags:
                attributes = {**self.tags, **attributes}
            self.spans.append(
                Span(
                    span_id=id_map[span.span_id],
                    parent_id=new_parent,
                    name=span.name,
                    start=start,
                    end=end,
                    attributes=attributes,
                )
            )


class _Stopwatch:
    """Duck-typed stand-in :class:`timed_span` yields when tracing is off.

    Exposes the two members instrumented code touches on a live
    :class:`Span` — ``seconds`` and ``attributes`` — so call sites need
    exactly one code path whether or not a tracer is attached.
    """

    __slots__ = ("start", "end", "attributes")

    def __init__(self, attributes: dict[str, Any]) -> None:
        self.start = time.perf_counter()
        self.end = self.start
        self.attributes = attributes

    @property
    def seconds(self) -> float:
        return max(0.0, self.end - self.start)


class timed_span:
    """A span when ``tracer`` is live, a bare stopwatch otherwise.

    Either way the ``with`` target carries ``.seconds`` after the block
    and a writable ``.attributes`` dict, so phase timing and tracing
    share one timer — the reconciliation guarantee between
    ``MorphRunResult``'s ``*_seconds`` fields and the trace. The span
    (or stopwatch) starts on entering the block and ends on leaving it,
    however it leaves. A slotted context manager rather than a
    generator: a traced query opens about fifteen.
    """

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: Tracer | None, name: str, **attributes: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span | _Stopwatch:
        tracer = self._tracer
        if tracer is None:
            span = self._span = _Stopwatch(self._attributes)
            return span
        span = self._span = tracer._new_span(self._name, self._attributes)
        tracer._stack.append(span.span_id)
        return span

    def __exit__(self, *exc_info) -> None:
        if self._tracer is not None:
            self._tracer._stack.pop()
        self._span.end = time.perf_counter()
