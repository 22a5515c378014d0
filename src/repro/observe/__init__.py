"""Structured run telemetry: spans, metrics, cost-model audits.

The measurement substrate behind every profiling claim this repo makes.
A :class:`Tracer` records a tree of phase/item/shard/kernel spans while
a run executes (attach one via ``RunOptions(trace=...)`` or
``MorphingSession(tracer=...)``); the resulting :class:`RunTrace`
carries the spans, a metrics snapshot subsuming the engine counters,
and one :class:`CostAuditRecord` per measured alternative pattern —
Algorithm 1's predicted cost next to the match time actually observed
(§5.2's accuracy story, made checkable).

:class:`ProgressReporter` is the live side of the same substrate: a
per-item progress/ETA line whose estimate starts from Algorithm 1's
predicted per-item costs and is corrected online by the measured
``match.item`` durations (``RunOptions(progress=True)``, CLI
``--progress``).

Exporters: :func:`write_jsonl` / :func:`load_trace` for the cookbook's
analysis recipes and the tests, :func:`write_chrome_trace` for flame
graphs in ``chrome://tracing`` / Perfetto. Tracing off costs nothing:
instrumented code guards on ``tracer is None`` and the kernels emit one
span per invocation from their existing ``SetOpStats`` counters rather
than tracing individual set operations.
"""

from repro.observe.audit import CostAuditRecord, rank_agreement
from repro.observe.export import (
    RunTrace,
    load_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.observe.histogram import StreamingHistogram, WindowGauge
from repro.observe.metrics import MetricsRegistry
from repro.observe.progress import ProgressReporter, ProgressSnapshot
from repro.observe.tracer import Span, Tracer, timed_span

__all__ = [
    "CostAuditRecord",
    "MetricsRegistry",
    "ProgressReporter",
    "ProgressSnapshot",
    "RunTrace",
    "Span",
    "StreamingHistogram",
    "Tracer",
    "WindowGauge",
    "load_trace",
    "rank_agreement",
    "timed_span",
    "write_chrome_trace",
    "write_jsonl",
]
