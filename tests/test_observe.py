"""Tests for the structured-telemetry subsystem (``repro.observe``).

The two load-bearing guarantees: tracing changes **nothing** (results are
byte-for-byte identical with tracing on or off, serial and sharded), and
the trace is **coherent** (span nesting holds, phase spans reconcile
exactly with the result's ``*_seconds`` fields, audits pair predictions
with measurements).
"""

from __future__ import annotations

import json

import pytest

from repro.core.aggregation import MNIAggregation
from repro.core.atlas import TRIANGLE, motif_patterns
from repro.engines.autozero.engine import AutoZeroEngine
from repro.engines.bigjoin.engine import BigJoinEngine
from repro.engines.graphpi.engine import GraphPiEngine
from repro.engines.peregrine.engine import PeregrineEngine
from repro.engines.sumpa.engine import SumPAEngine
from repro.morph.session import MorphingSession
from repro.observe import (
    CostAuditRecord,
    MetricsRegistry,
    RunTrace,
    Span,
    Tracer,
    load_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.observe.audit import rank_agreement
from repro.observe.tracer import timed_span
from repro.testing.oracle import assert_matches_oracle


def run_pair(graph, patterns, **kwargs):
    """The same workload untraced and traced, on fresh engines.

    The byte-identity of the two result mappings is already asserted by
    the shared oracle helper; callers assert the rest (measured costs,
    trace contents).
    """
    traced, plain = assert_matches_oracle(
        graph,
        patterns,
        PeregrineEngine,
        oracle_kwargs=kwargs,
        tracer=Tracer(),
        **kwargs,
    )
    return plain, traced


class TestTraceInvariance:
    def test_serial_results_identical(self, small_graph):
        plain, traced = run_pair(small_graph, list(motif_patterns(4)))
        assert plain.results == traced.results
        assert plain.measured == traced.measured

    def test_sharded_results_identical(self, small_graph):
        plain, traced = run_pair(small_graph, list(motif_patterns(3)), workers=2)
        assert plain.results == traced.results

    def test_mni_results_identical(self, small_labeled_graph):
        plain, traced = run_pair(
            small_labeled_graph, [TRIANGLE], aggregation=MNIAggregation()
        )
        assert plain.results == traced.results

    def test_streaming_results_identical(self, small_graph):
        seen_plain, seen_traced = [], []
        MorphingSession(PeregrineEngine()).run_streaming(
            small_graph, list(motif_patterns(3)), lambda p, m: seen_plain.append((p, m))
        )
        MorphingSession(PeregrineEngine(), tracer=Tracer()).run_streaming(
            small_graph, list(motif_patterns(3)), lambda p, m: seen_traced.append((p, m))
        )
        assert seen_plain == seen_traced

    def test_untraced_run_has_no_trace(self, small_graph):
        result = MorphingSession(PeregrineEngine()).run(small_graph, [TRIANGLE])
        assert result.trace is None


class TestTraceCoherence:
    def test_nesting_and_reconciliation(self, small_graph):
        tracer = Tracer()
        result = MorphingSession(PeregrineEngine(), tracer=tracer).run(
            small_graph, list(motif_patterns(4))
        )
        trace = result.trace
        trace.validate_nesting()
        stages = trace.stage_seconds()
        assert stages["transform"] == pytest.approx(result.transform_seconds)
        assert stages["match"] == pytest.approx(result.match_seconds)
        assert stages["convert"] == pytest.approx(result.convert_seconds)
        # Item spans partition the match window (no other work in it).
        item_total = sum(s.seconds for s in trace.find("match.item"))
        assert item_total <= result.match_seconds

    def test_kernel_spans_carry_counter_deltas(self, small_graph):
        tracer = Tracer()
        MorphingSession(PeregrineEngine(), tracer=tracer).run(
            small_graph, [TRIANGLE]
        )
        kernels = [s for s in tracer.spans if s.name.startswith("kernel")]
        assert kernels
        assert all("intersections" in s.attributes for s in kernels)
        total_intersections = sum(s.attributes["intersections"] for s in kernels)
        assert total_intersections == tracer.metrics.value(
            "engine.setops.intersections"
        )

    def test_sharded_spans_stitched_under_items(self, small_graph):
        tracer = Tracer()
        result = MorphingSession(
            PeregrineEngine(), tracer=tracer, workers=2
        ).run(small_graph, list(motif_patterns(3)))
        trace = result.trace
        trace.validate_nesting()
        shard_spans = trace.find("shard")
        assert shard_spans
        item_ids = {s.span_id for s in trace.find("match.item")}
        assert all(s.parent_id in item_ids for s in shard_spans)
        assert result.executor_seconds > 0.0
        assert trace.find("executor.setup") and trace.find("executor.teardown")

    def test_executor_seconds_in_total(self, small_graph):
        result = MorphingSession(PeregrineEngine(), workers=2).run(
            small_graph, [TRIANGLE]
        )
        assert result.total_seconds == pytest.approx(
            result.transform_seconds
            + result.match_seconds
            + result.convert_seconds
            + result.executor_seconds
        )
        assert result.executor_seconds > 0.0

    def test_serial_run_has_zero_executor_seconds(self, small_graph):
        result = MorphingSession(PeregrineEngine()).run(small_graph, [TRIANGLE])
        assert result.executor_seconds == 0.0

    def test_metrics_subsume_engine_stats(self, small_graph):
        tracer = Tracer()
        result = MorphingSession(PeregrineEngine(), tracer=tracer).run(
            small_graph, list(motif_patterns(3))
        )
        metrics = result.trace.metrics
        assert metrics["engine.setops.intersections"] == (
            result.stats.setops.intersections
        )
        assert metrics["engine.matches"] == result.stats.matches


class TestCostAudit:
    def test_one_record_per_measured_item(self, small_graph):
        tracer = Tracer()
        result = MorphingSession(PeregrineEngine(), tracer=tracer).run(
            small_graph, list(motif_patterns(4))
        )
        per_item = [a for a in tracer.audits if a.role != "selection"]
        assert len(per_item) == len(result.measured)
        for record in per_item:
            assert record.predicted_cost > 0.0
            assert record.measured_seconds > 0.0
            assert record.predicted_matches is not None
            assert record.measured_matches is not None  # count mode

    def test_selection_summary_record(self, small_graph):
        tracer = Tracer()
        MorphingSession(PeregrineEngine(), tracer=tracer).run(
            small_graph, list(motif_patterns(4))
        )
        summaries = [a for a in tracer.audits if a.role == "selection"]
        assert len(summaries) == 1
        assert summaries[0].extra["estimated_query_cost"] > 0.0

    def test_no_audits_when_morphing_disabled(self, small_graph):
        tracer = Tracer()
        MorphingSession(PeregrineEngine(), enabled=False, tracer=tracer).run(
            small_graph, [TRIANGLE]
        )
        assert tracer.audits == []

    def test_rank_agreement_bounds(self, small_graph):
        tracer = Tracer()
        MorphingSession(PeregrineEngine(), tracer=tracer).run(
            small_graph, list(motif_patterns(4))
        )
        score = rank_agreement(tracer.audits)
        assert score is None or 0.0 <= score <= 1.0

    def test_rank_agreement_synthetic(self):
        def rec(predicted, measured):
            return CostAuditRecord(
                item="x", pattern_id=0, variant="E", role="alternative",
                predicted_cost=predicted, measured_seconds=measured,
            )

        perfect = [rec(1.0, 0.1), rec(2.0, 0.2), rec(3.0, 0.3)]
        inverted = [rec(3.0, 0.1), rec(2.0, 0.2), rec(1.0, 0.3)]
        assert rank_agreement(perfect) == 1.0
        assert rank_agreement(inverted) == 0.0
        # Below two comparable pairs there is no verdict: a lone pair
        # would read 0.0/1.0 off a single noisy timing.
        assert rank_agreement([]) is None
        assert rank_agreement([rec(1.0, 0.1), rec(2.0, 0.2)]) is None

    @pytest.mark.parametrize(
        "engine_cls",
        [
            PeregrineEngine,
            AutoZeroEngine,
            GraphPiEngine,
            BigJoinEngine,
            SumPAEngine,
        ],
    )
    def test_every_engine_emits_audit_records(self, small_graph, engine_cls):
        """Traced morphed runs must never produce an empty audit — the
        regression that once gave peregrine a degenerate rank agreement."""
        tracer = Tracer()
        result = MorphingSession(engine_cls(), tracer=tracer).run(
            small_graph, list(motif_patterns(4))
        )
        per_item = [a for a in tracer.audits if a.role != "selection"]
        assert per_item, "no per-item CostAuditRecords were emitted"
        assert len(per_item) == len(result.measured)
        assert all(a.predicted_cost > 0.0 for a in per_item)
        assert all(a.measured_seconds > 0.0 for a in per_item)


class TestExporters:
    def _traced_run(self, graph, size=3):
        tracer = Tracer()
        result = MorphingSession(PeregrineEngine(), tracer=tracer).run(
            graph, list(motif_patterns(size))
        )
        return result.trace

    def test_jsonl_round_trip(self, small_graph, tmp_path):
        trace = self._traced_run(small_graph)
        path = tmp_path / "trace.jsonl"
        write_jsonl(trace, path)
        loaded = load_trace(path)
        assert [s.to_json() for s in loaded.spans] == [
            s.to_json() for s in trace.spans
        ]
        assert loaded.metrics == trace.metrics
        assert [a.to_json() for a in loaded.audits] == [
            a.to_json() for a in trace.audits
        ]
        assert loaded.meta == trace.meta
        loaded.validate_nesting()

    def test_jsonl_is_one_object_per_line(self, small_graph, tmp_path):
        trace = self._traced_run(small_graph)
        path = tmp_path / "trace.jsonl"
        write_jsonl(trace, path)
        lines = path.read_text().splitlines()
        kinds = [json.loads(line)["type"] for line in lines]
        assert kinds[0] == "meta"
        assert "span" in kinds and "metrics" in kinds and "cost_audit" in kinds

    def test_chrome_trace_shape(self, small_graph, tmp_path):
        trace = self._traced_run(small_graph)
        path = tmp_path / "trace.json"
        write_chrome_trace(trace, path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert len(events) == len(trace.spans)
        assert all(e["ph"] == "X" for e in events)
        assert min(e["ts"] for e in events) == pytest.approx(0.0)
        assert all(e["dur"] >= 0 for e in events)

    def test_dominant_stage(self, medium_graph):
        # Big enough that matching outweighs the plan search: on the
        # 25-vertex fixture the batched kernel finishes before it. The
        # first search in a process also fills the pattern caches, so
        # warm them: run alone, this test used to read "transform".
        self._traced_run(medium_graph, size=4)
        trace = self._traced_run(medium_graph, size=4)
        assert trace.dominant_stage() == "match"
        assert RunTrace().dominant_stage() is None


class TestTracerPrimitives:
    def test_span_tree_shape(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b", k=1):
                pass
            with tracer.span("c"):
                pass
        a, b, c = tracer.spans
        assert (a.parent_id, b.parent_id, c.parent_id) == (None, a.span_id, a.span_id)
        assert b.attributes == {"k": 1}
        assert a.end >= c.end >= c.start >= b.end

    def test_adopt_remaps_and_clamps(self):
        worker = Tracer()
        with worker.span("shard"):
            with worker.span("kernel"):
                pass
        shard, kernel = worker.spans
        # Skew the worker clock far outside any parent window.
        for s in (shard, kernel):
            s.start += 1e6
            s.end += 1e6
        parent = Tracer()
        with parent.span("match.item"):
            parent.adopt([shard, kernel])
        trace = RunTrace(spans=parent.spans)
        trace.validate_nesting()
        adopted = trace.find("shard")[0]
        assert adopted.parent_id == trace.find("match.item")[0].span_id
        assert trace.find("kernel")[0].parent_id == adopted.span_id

    def test_timed_span_without_tracer(self):
        with timed_span(None, "anything", k=2) as watch:
            watch.attributes["extra"] = True
        assert watch.seconds >= 0.0
        assert watch.attributes == {"k": 2, "extra": True}

    def test_metrics_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.add("c", 2)
        reg.add("c", 3)
        reg.gauge("g", "x")
        reg.gauge("g", "y")
        assert reg.value("c") == 5
        assert reg.value("g") == "y"
        other = MetricsRegistry()
        other.add("c", 1)
        reg.merge(other)
        assert reg.value("c") == 6
        assert "c" in reg and len(reg) == 2

    def test_metrics_writes_are_atomic_across_threads(self):
        """8 threads x 5,000 ``add`` + ``observe`` lose nothing: the
        daemon's handler, worker and sampler threads share one registry
        and hold no lock of their own around it."""
        import sys
        import threading

        reg = MetricsRegistry()
        threads, rounds = 8, 5_000
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait(timeout=30)
            for _ in range(rounds):
                reg.add("c")
                reg.observe("h", 0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert reg.value("c") == threads * rounds
        assert reg.histogram("h").count == threads * rounds

    def test_span_json_round_trip(self):
        span = Span(span_id=3, parent_id=1, name="n", start=1.5, end=2.5,
                    attributes={"w": [0, 4]})
        assert Span.from_json(span.to_json()) == span

    def test_engine_pickles_without_tracer(self, small_graph):
        import pickle

        engine = PeregrineEngine()
        engine.tracer = Tracer()
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.tracer is None

    def test_autozero_traced_counts_match(self, small_graph):
        plain = MorphingSession(AutoZeroEngine()).run(
            small_graph, list(motif_patterns(4))
        )
        traced = MorphingSession(AutoZeroEngine(), tracer=Tracer()).run(
            small_graph, list(motif_patterns(4))
        )
        assert plain.results == traced.results


class TestProgressReporter:
    """Cost-seeded ETA math on a fake clock — fully deterministic."""

    def _reporter(self, **kwargs):
        from repro.observe import ProgressReporter

        clock = {"now": 0.0}
        reporter = ProgressReporter(
            stream=None, clock=lambda: clock["now"], **kwargs
        )
        return reporter, clock

    def test_eta_calibrates_from_measurements(self):
        reporter, clock = self._reporter()
        reporter.start([("a", 1.0), ("b", 3.0)])
        # Before anything finishes: no rate, no ETA.
        assert reporter.seconds_per_cost is None
        assert reporter.eta_seconds() is None
        reporter.item_started("a")
        clock["now"] = 2.0
        reporter.item_finished("a", 2.0)
        # 2 measured seconds over 1 predicted cost unit ⇒ 2 s/unit;
        # 3 units remain ⇒ ETA 6 s.
        assert reporter.seconds_per_cost == pytest.approx(2.0)
        assert reporter.eta_seconds() == pytest.approx(6.0)
        snap = reporter.snapshot()
        assert snap.done_items == 1 and snap.total_items == 2
        assert snap.fraction_done == pytest.approx(0.25)  # cost-weighted
        assert snap.elapsed_seconds == pytest.approx(2.0)

    def test_prior_seeds_eta_before_first_finish(self):
        reporter, _clock = self._reporter(seconds_per_cost=0.5)
        reporter.start([("a", 4.0), ("b", 4.0)])
        # Algorithm 1's predicted costs × the prior ⇒ an ETA up front.
        assert reporter.eta_seconds() == pytest.approx(4.0)
        reporter.item_finished("a", 1.0)
        # Measurements override the prior (1s / 4 units = 0.25 s/unit).
        assert reporter.seconds_per_cost == pytest.approx(0.25)
        assert reporter.eta_seconds() == pytest.approx(1.0)

    def test_zero_cost_items_stay_finite(self):
        reporter, _clock = self._reporter()
        reporter.start([("a", 0.0), ("b", 0.0)])
        snap = reporter.snapshot()
        assert snap.total_cost > 0
        assert 0.0 <= snap.fraction_done <= 1.0
        reporter.item_finished("a", 0.0)
        assert reporter.eta_seconds() is not None

    def test_duplicate_and_unknown_finishes_ignored(self):
        reporter, _clock = self._reporter()
        reporter.start([("a", 1.0)])
        reporter.item_finished("a", 1.0)
        reporter.item_finished("a", 1.0)   # double-finish: no double count
        reporter.item_finished("ghost", 5.0)  # unknown label: ignored
        snap = reporter.snapshot()
        assert snap.done_items == 1
        assert reporter.seconds_per_cost == pytest.approx(1.0)

    def test_rendering_to_stream(self):
        import io

        from repro.observe import ProgressReporter

        clock = {"now": 0.0}
        stream = io.StringIO()
        reporter = ProgressReporter(
            stream=stream, min_interval=0.0, clock=lambda: clock["now"]
        )
        reporter.start([("tri", 1.0), ("star", 1.0)])
        reporter.item_started("tri")
        clock["now"] = 0.5
        reporter.item_finished("tri", 0.5)
        reporter.item_started("star")
        clock["now"] = 1.0
        reporter.item_finished("star", 0.5)
        reporter.finish()
        text = stream.getvalue()
        assert "# progress" in text
        assert "eta ~" in text
        assert "(tri)" in text
        # Final line is newline-terminated and reports completion.
        final = text.rstrip("\n").rsplit("\r", 1)[-1]
        assert "2/2 items" in final and "done in" in final
        assert text.endswith("\n")

    def test_throttling_respects_min_interval(self):
        import io

        from repro.observe import ProgressReporter

        clock = {"now": 0.0}
        stream = io.StringIO()
        reporter = ProgressReporter(
            stream=stream, min_interval=10.0, clock=lambda: clock["now"]
        )
        reporter.start([(str(i), 1.0) for i in range(50)])
        baseline_len = len(stream.getvalue())
        for i in range(50):  # all within the 10s window: no redraws
            reporter.item_finished(str(i), 0.01)
        assert len(stream.getvalue()) == baseline_len
        reporter.finish()  # the final line always renders
        assert "50/50 items" in stream.getvalue()

    def test_reporter_is_reusable(self):
        reporter, _clock = self._reporter()
        reporter.start([("a", 1.0)])
        reporter.item_finished("a", 1.0)
        reporter.finish()
        reporter.start([("b", 2.0), ("c", 2.0)])
        snap = reporter.snapshot()
        assert snap.done_items == 0 and snap.total_items == 2
        assert reporter.seconds_per_cost is None  # calibration reset too


class TestProgressIntegration:
    """Progress attached to real sessions: results stay identical."""

    def test_morphed_results_identical_with_progress(self, small_graph):
        from repro.observe import ProgressReporter

        patterns = list(motif_patterns(4))
        plain = MorphingSession(PeregrineEngine()).run(small_graph, patterns)
        reporter = ProgressReporter(stream=None)
        watched = MorphingSession(PeregrineEngine(), progress=reporter).run(
            small_graph, patterns
        )
        assert plain.results == watched.results
        snap = reporter.snapshot()
        assert snap.done_items == snap.total_items == len(watched.measured)
        assert snap.fraction_done == 1.0

    def test_baseline_results_identical_with_progress(self, small_graph):
        from repro.observe import ProgressReporter

        patterns = list(motif_patterns(3))
        plain = MorphingSession(PeregrineEngine(), enabled=False).run(
            small_graph, patterns
        )
        reporter = ProgressReporter(stream=None)
        watched = MorphingSession(
            PeregrineEngine(), enabled=False, progress=reporter
        ).run(small_graph, patterns)
        assert plain.results == watched.results
        assert reporter.snapshot().done_items == len(patterns)

    def test_run_facade_progress_kwarg(self, small_graph):
        import repro

        patterns = list(motif_patterns(3))
        plain = repro.run(small_graph, patterns)
        reporter = repro.ProgressReporter(stream=None)
        watched = repro.run(
            small_graph,
            patterns,
            options=repro.RunOptions(progress=reporter),
        )
        assert plain.results == watched.results
        assert reporter.snapshot().total_items > 0

    def test_progress_and_tracer_compose(self, small_graph):
        from repro.observe import ProgressReporter

        patterns = list(motif_patterns(4))
        plain = MorphingSession(PeregrineEngine()).run(small_graph, patterns)
        reporter = ProgressReporter(stream=None)
        both = MorphingSession(
            PeregrineEngine(), tracer=Tracer(), progress=reporter
        ).run(small_graph, patterns)
        assert plain.results == both.results
        # The measured durations fed to the reporter are the same
        # match.item spans the trace records.
        assert reporter.snapshot().done_items == len(
            [s for s in both.trace.spans if s.name == "match.item"]
        )

    def test_streaming_progress(self, small_graph):
        from repro.observe import ProgressReporter

        reporter = ProgressReporter(stream=None)
        session = MorphingSession(PeregrineEngine(), progress=reporter)
        matches = []
        result = session.run_streaming(
            small_graph, list(motif_patterns(3)),
            lambda p, m: matches.append(m),
        )
        assert matches
        assert result.results
        snap = reporter.snapshot()
        assert snap.done_items == snap.total_items > 0
