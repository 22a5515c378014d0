"""``repro top``: a throttled live terminal dashboard for the daemon.

Polls the ``stats`` op at a fixed interval and renders one compact
frame per poll: QPS, end-to-end latency quantiles, queue-depth envelope
(the window gauge), one row per declared stage of a served query
(:data:`repro.serve.server.STAGES`), per-engine phase breakdowns,
cache hit rates and the flight recorder's slow-query log. The same
injection seams as :class:`~repro.observe.progress.ProgressReporter` —
``clock``, ``sleep`` and ``stream`` are constructor parameters — so
tests drive a whole session against a fake daemon deterministically,
and the frame builder (:meth:`TopDashboard.render`) is a pure function
of two stats snapshots.

QPS is a *rate between polls*: ``Δ serve.queries / Δ uptime``, not the
lifetime average — a daemon that served a burst an hour ago shows 0.0,
which is what an operator watching a live service wants.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, TextIO

from repro.serve.client import Client
from repro.serve.server import STAGES

__all__ = ["TopDashboard"]

#: ANSI clear-screen + home, used only when the stream is a TTY.
_CLEAR = "\x1b[H\x1b[2J"


def _fmt_seconds(value: Any) -> str:
    """Human-scale duration: µs/ms/s picked by magnitude."""
    if value is None:
        return "-"
    value = float(value)
    if value < 1e-3:
        return f"{value * 1e6:.0f}µs"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _quantile_line(label: str, summary: dict[str, Any] | None) -> str:
    if not summary or not summary.get("count"):
        return f"  {label:<14} (no samples)"
    return (
        f"  {label:<14} p50 {_fmt_seconds(summary.get('p50')):>8}  "
        f"p90 {_fmt_seconds(summary.get('p90')):>8}  "
        f"p99 {_fmt_seconds(summary.get('p99')):>8}  "
        f"max {_fmt_seconds(summary.get('max')):>8}  "
        f"n={summary['count']}"
    )


class TopDashboard:
    """Live stats viewer over one :class:`~repro.serve.Client`.

    ``interval`` throttles polling (and therefore the daemon-side work:
    each frame is exactly one ``stats`` request). ``iterations`` bounds
    the run for scripting/CI (``None`` polls until interrupted).
    """

    def __init__(
        self,
        client: Client,
        interval: float = 1.0,
        stream: TextIO | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval!r}")
        self.client = client
        self.interval = interval
        self.stream = stream if stream is not None else sys.stdout
        self.clock = clock
        self.sleep = sleep
        self._previous: dict[str, Any] | None = None
        self.frames = 0

    # -- frame building (pure) ----------------------------------------------

    def render(self, stats: dict[str, Any]) -> str:
        """One dashboard frame from a ``stats`` snapshot.

        Pure: rates are computed against the previously rendered
        snapshot (held on the instance), everything else is read from
        ``stats`` alone.
        """
        metrics = stats.get("metrics", {})
        histograms = stats.get("histograms", {})
        queue = stats.get("queue", {})
        flight = stats.get("flight", {})
        plan_cache = stats.get("plan_cache", {})
        uptime = float(stats.get("uptime_seconds", 0.0))
        queries = float(metrics.get("serve.queries", 0))

        qps = None
        if self._previous is not None:
            prev_uptime = float(self._previous.get("uptime_seconds", 0.0))
            prev_queries = float(
                self._previous.get("metrics", {}).get("serve.queries", 0)
            )
            dt = uptime - prev_uptime
            if dt > 0:
                qps = max(0.0, queries - prev_queries) / dt
        elif uptime > 0:
            qps = queries / uptime

        lines = [
            f"repro top — {self.client.host}:{self.client.port}   "
            f"up {uptime:.1f}s   "
            f"schema v{stats.get('schema_version', '?')}",
            f"queries {queries:.0f}"
            + (f" ({qps:.2f}/s)" if qps is not None else "")
            + f"   slow {metrics.get('serve.slow_queries', 0):.0f}"
            + f"   queue {queue.get('last', '-')}"
            + (
                f" (min {queue.get('min')} / max {queue.get('max')}, "
                f"{queue.get('samples', 0)} samples)"
                if queue.get("last") is not None
                else ""
            ),
            "latency:",
            _quantile_line("total", histograms.get("serve.latency.total")),
            _quantile_line("queue_wait", histograms.get("serve.latency.queue_wait")),
            _quantile_line(
                "first_result", histograms.get("serve.latency.first_result")
            ),
            "stages:",
            *(
                _quantile_line(s.name, histograms.get(f"serve.stage.{s.name}"))
                for s in STAGES
            ),
        ]

        engines = sorted(
            {
                name.rsplit(".", 1)[-1]
                for name in histograms
                if name.startswith("serve.stage.match.")
            }
        )
        if engines:
            lines.append("per-engine match / plan / convert (p50):")
            for engine in engines:
                match = histograms.get(f"serve.stage.match.{engine}", {})
                plan = histograms.get(f"serve.stage.plan.{engine}", {})
                convert = histograms.get(f"serve.stage.convert.{engine}", {})
                lines.append(
                    f"  {engine:<12} "
                    f"{_fmt_seconds(match.get('p50')):>8} / "
                    f"{_fmt_seconds(plan.get('p50')):>8} / "
                    f"{_fmt_seconds(convert.get('p50')):>8}"
                    f"   n={match.get('count', 0)}"
                )

        hits = metrics.get("serve.result_cache.hits", 0)
        misses = metrics.get("serve.result_cache.misses", 0)
        lines.append(
            f"caches: result {hits:.0f} hit / {misses:.0f} miss   "
            f"plan {plan_cache.get('hits', 0)} hit / "
            f"{plan_cache.get('misses', 0)} miss"
        )
        lines.append(
            f"flight: {flight.get('recent', 0)}/{flight.get('capacity', 0)} "
            f"recent, {flight.get('anomalies', 0)} anomalies "
            f"(slow > {flight.get('slow_factor', '?')}x predicted)"
        )

        # Robustness sections are schema-v3; older daemons (and v2 test
        # fixtures) simply omit them, so every read is .get-guarded.
        service = stats.get("service") or {}
        shed = stats.get("shed") or {}
        sentinels = stats.get("sentinels") or {}
        if service or shed or sentinels:
            state = service.get("state", "?")
            shed_total = shed.get("shed_total", 0)
            slo = shed.get("slo_p99")
            line = f"service: {state}   shed {shed_total}"
            by_reason = shed.get("by_reason") or {}
            if by_reason:
                detail = ", ".join(
                    f"{reason} {count}"
                    for reason, count in sorted(by_reason.items())
                )
                line += f" ({detail})"
            line += f"   slo p99 {_fmt_seconds(slo) if slo is not None else '-'}"
            trips = sentinels.get("trips", 0)
            if isinstance(trips, dict):
                trips = sum(trips.values())
            line += (
                f"   sentinels {sentinels.get('active', 0)} active / "
                f"{trips} trips"
            )
            lines.append(line)
        breakers = stats.get("breakers") or {}
        if breakers:
            lines.append("breakers:")
            for cell, breaker in sorted(breakers.items()):
                state = breaker.get("state", "?")
                marker = {"closed": " ", "half-open": "~", "open": "!"}.get(
                    state, "?"
                )
                lines.append(
                    f"  {marker} {cell:<24} {state:<10} "
                    f"fails {breaker.get('consecutive_failures', 0)}/"
                    f"{breaker.get('failure_threshold', '?')}  "
                    f"transitions {breaker.get('transitions', 0)}"
                )
        anomalies = flight.get("recent_anomalies") or []
        if anomalies:
            lines.append("slow/failed queries:")
            for record in anomalies[-5:]:
                ratio = record.get("cost_ratio")
                detail = (
                    f"{ratio:.1f}x predicted"
                    if isinstance(ratio, (int, float)) and record.get("slow")
                    else record.get("status", "?")
                )
                error = record.get("error")
                if error:
                    detail += f"  {error}"
                lines.append(
                    f"  {record.get('query_id', '?'):<10} "
                    f"{record.get('engine', '?'):<10} "
                    f"{_fmt_seconds(record.get('seconds')):>8}  {detail}"
                )
        return "\n".join(lines) + "\n"

    # -- live loop -----------------------------------------------------------

    def tick(self) -> str:
        """Poll once, render one frame to the stream, return the frame."""
        stats = self.client.stats()
        frame = self.render(stats)
        self._previous = stats
        self.frames += 1
        if getattr(self.stream, "isatty", lambda: False)():
            self.stream.write(_CLEAR)
        elif self.frames > 1:
            self.stream.write("\n")
        self.stream.write(frame)
        self.stream.flush()
        return frame

    def run(self, iterations: int | None = None) -> int:
        """Poll/render until ``iterations`` frames (or Ctrl-C); returns
        the number of frames rendered."""
        rendered = 0
        try:
            while iterations is None or rendered < iterations:
                self.tick()
                rendered += 1
                if iterations is not None and rendered >= iterations:
                    break
                self.sleep(self.interval)
        except KeyboardInterrupt:
            pass
        return rendered
