"""Run-level metrics registry.

Subsumes the flat :class:`~repro.engines.base.EngineStats` counters into
a general name → value registry so exporters, the bench harness and the
CLI read one structure instead of poking engine internals. Counters add,
gauges overwrite, and :meth:`MetricsRegistry.merge` folds shard or
sub-run registries together with the same semantics.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.observe.histogram import StreamingHistogram, WindowGauge

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Named counters (monotonic sums), gauges (last-write-wins),
    streaming histograms (:meth:`observe`) and windowed gauges
    (:meth:`sample_window`).

    :meth:`snapshot` deliberately stays counters + gauges only — the
    flat view older exporters and the trace-invariance tests consume —
    while distributions are read through :meth:`histogram_snapshots`
    and :meth:`window`.

    Thread-safe: every write is a read-modify-write, and a daemon's
    handler, worker and sampler threads share one registry, so one
    internal lock covers all of them — callers hold none.
    """

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, Any] = {}
        self._histograms: dict[str, StreamingHistogram] = {}
        self._windows: dict[str, WindowGauge] = {}
        self._lock = threading.Lock()

    # -- write -------------------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: Any) -> None:
        """Set gauge ``name`` to ``value`` (overwrites)."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the streaming histogram ``name``.

        The histogram is created on first use with the default latency
        layout (1µs..10ks, 10 buckets/decade); the record path is O(1)
        and allocation-free thereafter.
        """
        hist = self._histograms.get(name)
        if hist is None:
            hist = self.histogram(name)
        with self._lock:
            hist.record(value)

    def record_batch(self, samples, counters=()) -> None:
        """Record each ``(name, value)`` of ``samples`` as :meth:`observe`
        would and add one to each counter named in ``counters``, all
        under one hold of the lock: a served query's bookkeeping."""
        histograms = self._histograms
        with self._lock:
            for name, value in samples:
                hist = histograms.get(name)
                if hist is None:
                    hist = self.histogram(name)
                hist.record(value)
            for name in counters:
                self._counters[name] = self._counters.get(name, 0) + 1

    def sample_window(self, name: str, value: float) -> None:
        """Record a sample into window gauge ``name`` (and gauge ``name``).

        The plain gauge keeps its last-write-wins view of the same
        quantity, so readers of :meth:`snapshot` still see the current
        value while :meth:`window` exposes the min/max envelope since
        the previous window read.
        """
        window = self.window(name)
        with self._lock:
            window.record(value)
            self._gauges[name] = value

    def record_engine_stats(self, stats, prefix: str = "engine.") -> None:
        """Fold an :class:`~repro.engines.base.EngineStats` in as counters.

        Every quantity the paper's profiling figures report becomes a
        metric: set-op counts and seconds (Fig. 4b/c, 12c/d, 13b), UDF
        calls and seconds (Fig. 4a/d/e, 15b), materialization volume,
        and Filter-UDF branches/misses (Fig. 14c/d).
        """
        setops = stats.setops
        values = (
            ("setops.intersections", setops.intersections),
            ("setops.differences", setops.differences),
            ("setops.galloped", setops.galloped),
            ("setops.batched", setops.batched),
            ("setops.elements_scanned", setops.elements_scanned),
            ("setops.seconds", setops.seconds),
            ("matches", stats.matches),
            ("materialized", stats.materialized),
            ("udf.calls", stats.udf_calls),
            ("udf.seconds", stats.udf_seconds),
            ("filter.calls", stats.filter_calls),
            ("filter.seconds", stats.filter_seconds),
            ("branches", stats.branches),
            ("branch_misses", stats.branch_misses),
            ("kernel.seconds", stats.total_seconds),
            ("patterns_matched", stats.patterns_matched),
        )
        counters = self._counters
        with self._lock:
            for name, value in values:
                name = prefix + name
                counters[name] = counters.get(name, 0) + value

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters add, gauges overwrite,
        histograms merge bucket-wise (layouts must match)."""
        with self._lock:
            counters = self._counters
            for name, value in other._counters.items():
                counters[name] = counters.get(name, 0) + value
            self._gauges.update(other._gauges)
            for name, hist in other._histograms.items():
                mine = self._histograms.get(name)
                if mine is None:
                    mine = self._histograms[name] = StreamingHistogram(
                        lo=hist.lo,
                        hi=hist.hi,
                        buckets_per_decade=hist.buckets_per_decade,
                    )
                mine.merge(hist)

    # -- read --------------------------------------------------------------

    def value(self, name: str, default: Any = 0) -> Any:
        if name in self._counters:
            return self._counters[name]
        return self._gauges.get(name, default)

    def histogram(self, name: str) -> StreamingHistogram:
        """The streaming histogram ``name`` (created empty on first use)."""
        hist = self._histograms.get(name)
        if hist is None:  # setdefault is atomic: racing creators agree
            hist = self._histograms.setdefault(name, StreamingHistogram())
        return hist

    def window(self, name: str) -> WindowGauge:
        """The window gauge ``name`` (created empty on first use)."""
        window = self._windows.get(name)
        if window is None:  # setdefault is atomic: racing creators agree
            window = self._windows.setdefault(name, WindowGauge())
        return window

    def histogram_snapshots(self) -> dict[str, dict[str, float]]:
        """``name -> quantile summary`` for every non-empty histogram."""
        with self._lock:
            return {
                name: hist.snapshot()
                for name, hist in sorted(self._histograms.items())
                if hist.count
            }

    def snapshot(self) -> dict[str, Any]:
        """Flat ``name -> value`` view (counters and gauges together).

        Histograms and windows are excluded by design: this is the flat
        scalar view; read distributions via
        :meth:`histogram_snapshots` / :meth:`window`.
        """
        with self._lock:
            out: dict[str, Any] = dict(self._counters)
            out.update(self._gauges)
            return out

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __contains__(self, name: str) -> bool:
        return (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        )
