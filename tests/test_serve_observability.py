"""Live observability of the resident daemon (PR 9).

Five layers, innermost first: the streaming histogram's fixed-boundary
bucketing, quantiles and merges are exact on constructed inputs; the
window gauge and the scheduler's continuously-sampled queue depth obey
reset-on-read window semantics under an injected clock; per-query
trace propagation stamps the server-minted ``query_id`` into every
span (worker spans included, via ``Tracer.adopt``); the flight
recorder retains anomalies across ring eviction and dumps valid
JSONL/Chrome traces; and the dict-level server's versioned ``stats``
snapshot validates, with a forced-slow query (measured ≫ k× predicted
cost) landing in the flight recorder and its dumped trace passing
``validate_nesting``.
"""

from __future__ import annotations

import io
import json
import math

import pytest

import repro
from repro.core.atlas import TRIANGLE, motif_patterns
from repro.engines.peregrine.engine import PeregrineEngine
from repro.morph.session import MorphingSession
from repro.observe import (
    MetricsRegistry,
    ProgressReporter,
    RunTrace,
    Span,
    StreamingHistogram,
    Tracer,
    WindowGauge,
    load_trace,
    write_chrome_trace,
)
from repro.options import RunOptions
from repro.serve import (
    FlightRecord,
    FlightRecorder,
    GraphRegistry,
    MiningServer,
    Query,
    QueryScheduler,
    TopDashboard,
    validate_stats,
)


def tri_text() -> str:
    return repro.format_pattern(TRIANGLE)


class FakeClock:
    """Deterministic monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# StreamingHistogram


class TestStreamingHistogram:
    def test_single_value_pins_every_quantile(self):
        hist = StreamingHistogram()
        hist.record(0.125)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(0.125)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["min"] == snap["max"] == pytest.approx(0.125)

    def test_quantiles_bounded_by_bucket_resolution(self):
        hist = StreamingHistogram()
        values = [10 ** (-5 + 7 * i / 999) for i in range(1000)]
        for v in values:
            hist.record(v)
        values.sort()
        for q in (0.5, 0.9, 0.99):
            exact = values[int(q * len(values)) - 1]
            approx = hist.quantile(q)
            # One bucket spans a factor of 10**(1/10) ≈ 1.26.
            assert exact / 1.3 <= approx <= exact * 1.3

    def test_under_and_overflow_are_retained(self):
        hist = StreamingHistogram(lo=1e-3, hi=1e3)
        hist.record(1e-9)
        hist.record(1e9)
        assert hist.count == 2
        assert hist.min == pytest.approx(1e-9)
        assert hist.max == pytest.approx(1e9)
        # Quantiles stay clamped to the observed extremes.
        assert hist.quantile(0.0) >= 1e-9
        assert hist.quantile(1.0) <= 1e9

    def test_merge_equals_single_feed(self):
        a, b, both = (StreamingHistogram() for _ in range(3))
        xs = [0.001 * (i + 1) for i in range(50)]
        ys = [0.01 * (i + 1) for i in range(50)]
        for x in xs:
            a.record(x)
            both.record(x)
        for y in ys:
            b.record(y)
            both.record(y)
        a.merge(b)
        assert a.count == both.count == 100
        assert a.total == pytest.approx(both.total)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert a.quantile(q) == pytest.approx(both.quantile(q))

    def test_merge_rejects_layout_mismatch(self):
        a = StreamingHistogram()
        b = StreamingHistogram(buckets_per_decade=5)
        with pytest.raises(ValueError, match="bucket layouts"):
            a.merge(b)

    def test_json_round_trip(self):
        hist = StreamingHistogram()
        for i in range(100):
            hist.record(0.0001 * (i + 1))
        clone = StreamingHistogram.from_json(hist.to_json())
        assert clone.count == hist.count
        assert clone.quantile(0.5) == pytest.approx(hist.quantile(0.5))
        assert clone.snapshot() == hist.snapshot()

    def test_empty_snapshot_is_degenerate_but_valid(self):
        hist = StreamingHistogram()
        assert hist.snapshot() == {"count": 0, "sum": 0.0}
        assert hist.quantile(0.5) == 0.0

    def test_record_is_allocation_free_of_bucket_growth(self):
        hist = StreamingHistogram()
        buckets_before = len(hist._counts)
        for i in range(1000):
            hist.record(10.0 ** ((i % 200) / 10 - 10))
        assert len(hist._counts) == buckets_before


class TestWindowGauge:
    def test_envelope_and_reset_on_read(self):
        gauge = WindowGauge()
        for depth in (1, 4, 2, 0):
            gauge.record(depth)
        window = gauge.read()
        assert window == {"last": 0.0, "min": 0.0, "max": 4.0, "samples": 4}
        # The next window is seeded with the last value.
        window = gauge.read()
        assert window == {"last": 0.0, "min": 0.0, "max": 0.0, "samples": 0}
        gauge.record(7)
        assert gauge.read()["max"] == 7.0

    def test_unread_window_reports_nothing(self):
        assert WindowGauge().read() == {
            "last": None,
            "min": None,
            "max": None,
            "samples": 0,
        }


class TestMetricsRegistryHistograms:
    def test_observe_and_merge_fold_distributions(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (0.01, 0.02, 0.03):
            a.observe("lat", v)
        for v in (0.04, 0.05):
            b.observe("lat", v)
        a.merge(b)
        assert a.histogram("lat").count == 5
        assert a.histogram_snapshots()["lat"]["max"] == pytest.approx(0.05)

    def test_snapshot_stays_scalar_only(self):
        registry = MetricsRegistry()
        registry.add("queries", 3)
        registry.observe("lat", 0.5)
        registry.sample_window("depth", 2)
        snap = registry.snapshot()
        assert snap["queries"] == 3
        assert "lat" not in snap
        # The window's companion gauge keeps the flat view current.
        assert snap["depth"] == 2
        assert "lat" in registry and len(registry) == 3


# ---------------------------------------------------------------------------
# Satellite 1: continuously-sampled queue depth


class TestQueueDepthWindow:
    def test_depth_window_sees_transient_peak(self):
        clock = FakeClock()
        scheduler = QueryScheduler(clock=clock, slots=1)
        holder = Query({"op": "run"}, client="holder")
        assert scheduler.submit(holder) == "accepted"  # takes the slot
        queries = [Query({"op": "run"}, client=f"c{i}") for i in range(3)]
        for query in queries:
            assert scheduler.submit(query) == "accepted"
            clock.advance(0.1)
        for query in queries:
            scheduler.release(holder)
            assert query.holds_slot  # FIFO within the one priority
            holder = query
        window = scheduler.metrics.window("serve.queue.depth").read()
        # Admission-time gauging alone would report only the final 0.
        assert window["max"] == 3.0
        assert window["min"] == 0.0
        assert window["last"] == 0.0
        assert window["samples"] == 8  # 4 submits + 4 grants
        # Reset-on-read: the next window starts fresh at the last value.
        assert scheduler.metrics.window("serve.queue.depth").read()["samples"] == 0
        # The plain gauge still answers for legacy readers.
        assert scheduler.metrics.value("serve.queue.depth") == 0

    def test_time_based_sampling_between_transitions(self):
        clock = FakeClock()
        scheduler = QueryScheduler(clock=clock, slots=1)
        scheduler.submit(Query({"op": "run"}))  # takes the slot
        scheduler.submit(Query({"op": "run"}))  # waits for it
        scheduler.metrics.window("serve.queue.depth").read()
        assert scheduler.sample_depth() == 1
        window = scheduler.metrics.window("serve.queue.depth").read()
        assert window["samples"] == 1 and window["last"] == 1.0

    def test_scheduler_stamps_query_timestamps(self):
        clock = FakeClock()
        scheduler = QueryScheduler(clock=clock, slots=1)
        holder = Query({"op": "run"}, query_id="q-000041")
        scheduler.submit(holder)
        query = Query({"op": "run"}, query_id="q-000042")
        clock.advance(5.0)
        scheduler.submit(query)
        assert query.submitted_at == 5.0 and query.started_at is None
        clock.advance(2.5)
        scheduler.release(holder)
        assert scheduler.acquire(query) is None
        assert query.started_at == 7.5
        clock.advance(1.0)
        scheduler.release(query)
        assert query.finished_at == 8.5
        assert query.queue_wait == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# Per-query trace propagation


class TestTracerTags:
    def test_tags_stamp_every_span(self):
        tracer = Tracer(tags={"query_id": "q-000007"})
        with tracer.span("serve.query"):
            with tracer.span("match", item="TT"):
                pass
        assert all(s.attributes["query_id"] == "q-000007" for s in tracer.spans)
        # Explicit attributes win over tags on collision.
        with tracer.span("odd", query_id="override"):
            pass
        assert tracer.spans[-1].attributes["query_id"] == "override"

    def test_adopted_worker_spans_inherit_tags(self):
        worker = Tracer()
        with worker.span("shard", window=(0, 10)):
            with worker.span("kernel"):
                pass
        home = Tracer(tags={"query_id": "q-000009"})
        with home.span("match"):
            home.adopt(list(worker.spans))
        adopted = [s for s in home.spans if s.name in ("shard", "kernel")]
        assert len(adopted) == 2
        assert all(s.attributes["query_id"] == "q-000009" for s in adopted)
        # Worker-recorded attributes survive the stamp.
        assert next(s for s in adopted if s.name == "shard").attributes[
            "window"
        ] == (0, 10)


# ---------------------------------------------------------------------------
# Satellite 3: Chrome-trace export of adopted worker spans


class TestChromeExportOfAdoptedSpans:
    def _adopted_trace(self) -> RunTrace:
        worker = Tracer()
        with worker.span("shard", shard=0):
            with worker.span("kernel"):
                pass
        # A second worker whose clock domain is wildly skewed: its
        # intervals land far outside the parent window and must be
        # clamped on adoption.
        skewed = [
            Span(span_id=1, parent_id=None, name="shard", start=1e9, end=1e9 + 5),
            Span(span_id=2, parent_id=1, name="kernel", start=1e9 + 1, end=1e9 + 2),
        ]
        home = Tracer(tags={"query_id": "q-000001"})
        with home.span("run"):
            with home.span("match"):
                home.adopt(list(worker.spans))
                home.adopt(skewed)
        return RunTrace.from_tracer(home, query_id="q-000001")

    def test_adopted_spans_export_valid_trace_events(self, tmp_path):
        trace = self._adopted_trace()
        trace.validate_nesting()
        path = tmp_path / "adopted.chrome.json"
        write_chrome_trace(trace, path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert {e["name"] for e in events} >= {"run", "match", "shard", "kernel"}
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert math.isfinite(event["ts"]) and math.isfinite(event["dur"])
        # Re-parented/clamped children stay inside their parent's
        # [ts, ts+dur] interval — the "non-overlapping" contract a
        # flame-graph viewer needs to nest the events.
        by_name = {e["name"]: e for e in events if e["name"] in ("run", "match")}
        run_lo = by_name["run"]["ts"]
        run_hi = run_lo + by_name["run"]["dur"]
        slack = 1.0  # µs
        for event in events:
            assert event["ts"] >= run_lo - slack
            assert event["ts"] + event["dur"] <= run_hi + slack
        # The clamped skewed shard collapsed into the parent window
        # instead of stretching the timeline to 1e9 seconds.
        assert all(e["ts"] + e["dur"] < 60e6 for e in events)
        assert all(
            e["args"]["query_id"] == "q-000001"
            for e in events
            if e["name"] in ("shard", "kernel")
        )


# ---------------------------------------------------------------------------
# Satellite 2: progress line terminated on a faulted run


class TestProgressFaultTermination:
    def test_faulted_run_terminates_progress_line(self, small_graph):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, min_interval=0.0)

        def boom(_query, _match):
            raise RuntimeError("boom")

        session = MorphingSession(
            PeregrineEngine(), enabled=False, progress=reporter
        )
        with pytest.raises(RuntimeError, match="boom"):
            session.run_streaming(small_graph, [TRIANGLE], boom)
        out = stream.getvalue()
        assert "\r" in out  # a line was mid-render when the run died
        assert out.endswith("\n")  # ...and was terminated in the finally

    def test_clean_run_emits_exactly_one_newline(self, small_graph):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, min_interval=0.0)
        session = MorphingSession(
            PeregrineEngine(), enabled=False, progress=reporter
        )
        session.run(small_graph, [TRIANGLE])
        out = stream.getvalue()
        assert out.endswith("\n") and out.count("\n") == 1

    def test_close_is_idempotent_and_silent_after_finish(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, min_interval=0.0)
        reporter.start([("a", 1.0)])
        reporter.item_finished("a", 0.1)
        reporter.finish()
        length = len(stream.getvalue())
        reporter.close()
        reporter.close()
        assert len(stream.getvalue()) == length

    def test_close_without_stream_is_safe(self):
        reporter = ProgressReporter(stream=None)
        reporter.start([("a", 1.0)])
        reporter.close()  # must not raise


# ---------------------------------------------------------------------------
# Flight recorder


def _record(query_id: str, status: str = "ok", **kwargs) -> FlightRecord:
    defaults = dict(
        client="c", graph="g", engine="peregrine", patterns=["a-b"]
    )
    defaults.update(kwargs)
    return FlightRecord(query_id=query_id, status=status, **defaults)


class TestFlightRecorder:
    def test_ring_evicts_but_anomalies_survive(self):
        recorder = FlightRecorder(capacity=4, anomaly_capacity=8)
        recorder.record(_record("q-000001", status="error", error="boom"))
        for i in range(2, 12):
            recorder.record(_record(f"q-{i:06d}"))
        assert len(recorder) == 4  # ring holds only the most recent
        assert recorder.find("q-000001") is not None  # anomaly survived
        occupancy = recorder.occupancy()
        assert occupancy["recorded"] == 11
        assert occupancy["recent"] == 4 and occupancy["anomalies"] == 1

    def test_slow_classification_uses_cost_model(self):
        recorder = FlightRecorder(slow_factor=4.0)
        fast = recorder.record(
            _record("q-000001", predicted_seconds=0.1, measured_seconds=0.2)
        )
        slow = recorder.record(
            _record("q-000002", predicted_seconds=0.1, measured_seconds=0.9)
        )
        unpredicted = recorder.record(_record("q-000003"))
        assert not fast.slow and fast.cost_ratio == pytest.approx(2.0)
        assert slow.slow and slow.anomalous
        assert slow.cost_ratio == pytest.approx(9.0)
        assert unpredicted.cost_ratio is None and not unpredicted.slow
        assert [r.query_id for r in recorder.anomalies()] == ["q-000002"]

    def test_partial_status_is_anomalous(self):
        recorder = FlightRecorder()
        record = recorder.record(_record("q-000001", status="partial"))
        assert record.anomalous and recorder.anomalies() == [record]

    def test_dump_writes_traces_and_index(self, tmp_path):
        tracer = Tracer(tags={"query_id": "q-000001"})
        with tracer.span("serve.query"):
            pass
        recorder = FlightRecorder()
        recorder.record(
            _record("q-000001", trace=RunTrace.from_tracer(tracer))
        )
        recorder.record(_record("q-000002", cached=True))  # no trace
        files = recorder.dump(str(tmp_path))
        names = {f.rsplit("/", 1)[-1] for f in files}
        assert names == {
            "q-000001.trace.jsonl",
            "q-000001.chrome.json",
            "index.json",
        }
        index = json.loads((tmp_path / "index.json").read_text())
        by_id = {r["query_id"]: r for r in index["records"]}
        assert by_id["q-000001"]["has_trace"]
        assert not by_id["q-000002"]["has_trace"]
        reloaded = load_trace(tmp_path / "q-000001.trace.jsonl")
        reloaded.validate_nesting()
        assert reloaded.spans[0].attributes["query_id"] == "q-000001"


# ---------------------------------------------------------------------------
# Dict-level server: stats schema, query ids, slow queries, dump op


@pytest.fixture()
def server(small_graph):
    """Threadless dict-level server over ``small_graph`` (no sockets)."""
    registry = GraphRegistry(share=False)
    registry.add("small", small_graph)
    server = MiningServer(registry=registry)
    yield server
    server.close()


class TestServerObservability:
    def test_stats_snapshot_validates_with_live_quantiles(self, server):
        patterns = [repro.format_pattern(p) for p in motif_patterns(3)]
        for engine in ("peregrine", "graphpi"):
            for text in patterns:
                response = server.handle(
                    {
                        "op": "run",
                        "graph": "small",
                        "patterns": [text],
                        "options": {"engine": engine},
                        "use_result_cache": False,
                    }
                )
                assert response["ok"]
        stats = validate_stats(server.handle({"op": "stats"}))
        total = stats["histograms"]["serve.latency.total"]
        assert total["count"] >= 4
        assert 0 < total["p50"] <= total["p99"] <= total["max"]
        assert stats["histograms"]["serve.latency.queue_wait"]["count"] >= 4
        assert stats["histograms"]["serve.latency.first_result"]["count"] >= 4
        # Per-engine stage distributions exist for both engines driven.
        for engine in ("peregrine", "graphpi"):
            for stage in ("plan", "match", "convert"):
                assert f"serve.stage.{stage}.{engine}" in stats["histograms"]
        assert stats["flight"]["recent"] == total["count"]

    def test_one_query_declines_are_counted(self, server):
        # A lone triangle (a clique: nothing to morph into) declines
        # without the S-DAG; its repeat is a plan-cache hit and a set of
        # two queries takes the full search, so neither counts.
        wedge = repro.format_pattern(repro.Pattern.path(3).vertex_induced())
        declined = []
        for texts in ([tri_text()], [tri_text()], [tri_text(), wedge]):
            response = server.handle(
                {
                    "op": "run",
                    "graph": "small",
                    "patterns": texts,
                    "use_result_cache": False,
                }
            )
            assert response["ok"]
            trace = server.flight.find(response["query_id"]).trace
            (search,) = [s for s in trace.spans if s.name == "plan.search"]
            declined.append(search.attributes["declined"])
        # The cached plan still says how it was found.
        assert declined == [True, True, False]
        stats = validate_stats(server.handle({"op": "stats"}))
        assert stats["metrics"]["plan.declined_early"] == 1

    def test_every_response_carries_a_fresh_query_id(self, server):
        ids = set()
        for _ in range(3):
            response = server.handle(
                {"op": "run", "graph": "small", "patterns": [tri_text()]}
            )
            assert response["ok"]
            ids.add(response["query_id"])
        assert len(ids) == 3
        # The flight-recorded trace carries the same id on every span.
        record = server.flight.find(sorted(ids)[0])
        assert record is not None and record.trace is not None
        assert all(
            s.attributes.get("query_id") == record.query_id
            for s in record.trace.spans
        )

    def test_rejected_query_still_gets_an_id(self, small_graph):
        registry = GraphRegistry(share=False)
        registry.add("small", small_graph)
        from repro.serve import AdmissionPolicy

        server = MiningServer(
            registry=registry,
            policy=AdmissionPolicy(max_queue_depth=1),
            workers=1,
        )
        try:
            # One placeholder holds the only slot and a second waits for
            # it, so the next admission sees the queue full.
            for _ in range(2):
                server.scheduler.submit(Query({"op": "noop"}, client="pin"))
            response = server.handle(
                {"op": "run", "graph": "small", "patterns": [tri_text()]}
            )
            assert not response["ok"]
            assert response["admission"] == "rejected:queue-full"
            assert response["query_id"].startswith("q-")
        finally:
            server.close()

    def test_forced_slow_query_lands_in_flight_recorder(
        self, tiny_graph, tmp_path
    ):
        # The 8-vertex graph: the kernel's fixed per-call overhead is
        # several times the calibrated prediction there, so the query
        # is under-predicted (cost_ratio > 1) on any machine.
        registry = GraphRegistry(share=False)
        registry.add("small", tiny_graph)
        # A threshold this aggressive makes every real measurement
        # "slow": measured seconds always exceed 1e-9 x predicted.
        server = MiningServer(registry=registry, slow_factor=1e-9)
        try:
            response = server.handle(
                {
                    "op": "run",
                    "graph": "small",
                    "patterns": [tri_text()],
                    "use_result_cache": False,
                }
            )
            assert response["ok"]
            anomalies = server.flight.anomalies()
            assert anomalies, "slow query was not retained"
            record = anomalies[-1]
            assert record.slow and record.query_id == response["query_id"]
            assert record.predicted_seconds and record.predicted_seconds > 0
            assert record.cost_ratio > 1.0
            assert server.metrics.value("serve.slow_queries") >= 1
            # Its dumped Chrome trace is a valid nested flame graph.
            dump = server.handle({"op": "dump", "dir": str(tmp_path)})
            assert dump["ok"]
            trace = load_trace(tmp_path / f"{record.query_id}.trace.jsonl")
            trace.validate_nesting()
            chrome = json.loads(
                (tmp_path / f"{record.query_id}.chrome.json").read_text()
            )
            assert chrome["traceEvents"]
            stats = validate_stats(server.handle({"op": "stats"}))
            assert stats["flight"]["anomalies"] >= 1
            assert stats["flight"]["recent_anomalies"][-1]["slow"]
        finally:
            server.close()

    def test_failed_query_is_retained_as_error(self, server, monkeypatch):
        def explode(self, *args, **kwargs):
            raise RuntimeError("engine caught fire")

        monkeypatch.setattr(
            "repro.serve.server.MorphingSession.run", explode
        )
        response = server.handle(
            {"op": "run", "graph": "small", "patterns": [tri_text()]}
        )
        assert not response["ok"]
        assert "engine caught fire" in response["error"]
        assert response["query_id"].startswith("q-")
        anomalies = server.flight.anomalies()
        assert anomalies and anomalies[-1].status == "error"
        record = anomalies[-1]
        assert record.query_id == response["query_id"]
        assert record.error and "engine caught fire" in record.error
        # The partial trace up to the failure point is retained too.
        assert record.trace is not None

    def test_health_op_is_cheap_and_truthful(self, server):
        server.handle({"op": "run", "graph": "small", "patterns": [tri_text()]})
        health = server.handle({"op": "health"})
        assert health["ok"] and health["status"] == "ok"
        assert health["queries"] == 1
        assert health["queue_depth"] == 0

    def test_cache_hit_observes_latency_but_skips_stage_histograms(self, server):
        request = {"op": "run", "graph": "small", "patterns": [tri_text()]}
        server.handle(dict(request))
        before = server.metrics.histogram("serve.stage.match.peregrine").count
        response = server.handle(dict(request))
        assert response["cached"]
        assert (
            server.metrics.histogram("serve.stage.match.peregrine").count
            == before
        )
        assert server.metrics.histogram("serve.latency.total").count == 2
        hit_record = server.flight.find(response["query_id"])
        assert hit_record is not None and hit_record.cached
        assert hit_record.trace is None

    def test_validate_stats_rejects_a_broken_snapshot(self, server):
        stats = server.handle({"op": "stats"})
        del stats["histograms"]
        stats["schema_version"] = 1
        with pytest.raises(ValueError, match="histograms"):
            validate_stats(stats)


# ---------------------------------------------------------------------------
# repro top


class _FakeStatsClient:
    """Stands in for :class:`repro.serve.Client` under the dashboard."""

    host, port = "127.0.0.1", 7071

    def __init__(self, snapshots):
        self.snapshots = list(snapshots)
        self.calls = 0

    def stats(self):
        self.calls += 1
        return self.snapshots[min(self.calls - 1, len(self.snapshots) - 1)]


def _stats(queries: float, uptime: float, **extra) -> dict:
    base = {
        "ok": True,
        "schema_version": 2,
        "metrics": {"serve.queries": queries, "serve.slow_queries": 1},
        "histograms": {
            "serve.latency.total": {
                "count": queries,
                "p50": 0.012,
                "p90": 0.040,
                "p99": 0.110,
                "max": 0.200,
            },
            "serve.stage.match.peregrine": {"count": queries, "p50": 0.010},
        },
        "queue": {"last": 1, "min": 0, "max": 3, "samples": 9},
        "scheduler": {"depth": 1},
        "graphs": ["mico"],
        "result_cache_entries": 2,
        "plan_cache": {"hits": 5, "misses": 2},
        "flight": {
            "recent": 4,
            "capacity": 64,
            "anomalies": 1,
            "anomaly_capacity": 32,
            "slow_factor": 8.0,
            "recorded": 4,
            "recent_anomalies": [
                {
                    "query_id": "q-000003",
                    "engine": "peregrine",
                    "seconds": 0.45,
                    "status": "ok",
                    "slow": True,
                    "cost_ratio": 12.3,
                }
            ],
        },
        "uptime_seconds": uptime,
    }
    base.update(extra)
    return base


class TestTopDashboard:
    def test_frames_render_rates_between_polls(self):
        client = _FakeStatsClient([_stats(10, 10.0), _stats(40, 20.0)])
        stream = io.StringIO()
        slept = []
        dashboard = TopDashboard(
            client,
            interval=0.5,
            stream=stream,
            clock=FakeClock(),
            sleep=slept.append,
        )
        assert dashboard.run(iterations=2) == 2
        out = stream.getvalue()
        assert "repro top — 127.0.0.1:7071" in out
        # First frame: lifetime average; second: rate between polls.
        assert "(1.00/s)" in out
        assert "(3.00/s)" in out
        assert "p50" in out and "12.0ms" in out
        assert "q-000003" in out and "12.3x predicted" in out
        assert "queue 1 (min 0 / max 3, 9 samples)" in out
        assert slept == [0.5]  # throttled between the two frames

    def test_render_survives_empty_daemon(self):
        client = _FakeStatsClient(
            [
                {
                    "ok": True,
                    "schema_version": 2,
                    "metrics": {},
                    "histograms": {},
                    "queue": {"last": None, "min": None, "max": None, "samples": 0},
                    "scheduler": {"depth": 0},
                    "graphs": [],
                    "result_cache_entries": 0,
                    "plan_cache": {"hits": 0, "misses": 0},
                    "flight": {
                        "recent": 0,
                        "capacity": 64,
                        "anomalies": 0,
                        "anomaly_capacity": 32,
                        "slow_factor": 8.0,
                        "recorded": 0,
                        "recent_anomalies": [],
                    },
                    "uptime_seconds": 0.0,
                }
            ]
        )
        stream = io.StringIO()
        dashboard = TopDashboard(client, interval=1.0, stream=stream)
        frame = dashboard.tick()
        assert "(no samples)" in frame
        assert "queries 0" in frame
