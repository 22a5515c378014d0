"""Differential matrix for the vectorized batched-frontier kernels.

The contract is the strongest in the repo: for any graph, pattern,
engine, aggregation, session path and shard layout, ``batch_roots=N``
must return results *byte-identical* to the per-root DFS kernels — same
counts, same MNI tables, same match lists in the same order. The matrix
here pins that at three layers:

* kernel level — :func:`repro.engines.frontier.run_plan_batched` and the
  AutoZero :func:`~repro.engines.autozero.codegen.run_compiled_batched`
  against :func:`repro.engines.base.run_plan`, counts and ``on_match``
  streams, over hypothesis-random graphs and patterns;
* session level — every engine × aggregation × morphed/baseline ×
  batch size {1, 7, 4096} × workers {1, 4} × result sink {store,
  stream} (the stream sink where the aggregation is a match list);
* composition — batching under shard retry, deadlines, checkpoints and
  progress reporting still matches the fault-free per-root oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

import repro
from repro import (
    CountAggregation,
    ExistenceAggregation,
    FaultPlan,
    FaultSpec,
    MatchListAggregation,
    MNIAggregation,
    PartialRunResult,
    RetryPolicy,
)
from repro.core.atlas import FOUR_CYCLE, TAILED_TRIANGLE, TRIANGLE
from repro.core.pattern import Pattern
from repro.engines.autozero.codegen import run_compiled_batched
from repro.engines.autozero.engine import AutoZeroEngine
from repro.engines.base import EngineStats, run_plan
from repro.engines.bigjoin.engine import BigJoinEngine
from repro.engines.frontier import run_plan_batched
from repro.engines.graphpi.engine import GraphPiEngine
from repro.engines.peregrine.engine import PeregrineEngine
from repro.engines.sumpa.engine import SumPAEngine
from repro.graph.datagraph import DataGraph
from repro.observe.progress import ProgressReporter
from repro.testing.oracle import assert_matches_oracle

from .strategies import data_graphs, patterns

ENGINES = [
    PeregrineEngine,
    AutoZeroEngine,
    GraphPiEngine,
    BigJoinEngine,
    SumPAEngine,
]

AGGREGATIONS = [
    CountAggregation,
    MNIAggregation,
    MatchListAggregation,
    ExistenceAggregation,
]

#: The ISSUE's batch-size axis: degenerate, odd, and far beyond any
#: fixture's root count (so the final chunk is always ragged).
BATCH_SIZES = (1, 7, 4096)

QUERIES = [TRIANGLE, TAILED_TRIANGLE.vertex_induced(), FOUR_CYCLE]

#: The result-sink axis: Algorithm 2's store and Algorithm 3's stream.
SINKS = ("store", "stream")

NOSLEEP = RetryPolicy(max_retries=3, backoff_seconds=0.0, sleep=lambda _s: None)


def batched_variants(graph, plan, *, on_match=None, root_window=None, batch=7):
    """Run both batched kernels; assert they agree; return the count."""
    interp = run_plan_batched(
        graph, plan, EngineStats(), on_match=on_match,
        root_window=root_window, batch_roots=batch,
    )
    compiled = run_compiled_batched(
        graph, plan, EngineStats(),
        root_window=root_window, batch_roots=batch,
    )
    assert compiled == interp
    return interp


# -- kernel level ------------------------------------------------------------


class TestKernelDifferential:
    @given(data_graphs(min_n=1, max_n=12), patterns(min_n=2, max_n=4))
    @settings(max_examples=20, deadline=None)
    def test_counts_and_streams_match_per_root(self, graph, pattern):
        plan = PeregrineEngine().make_plan(pattern, graph)
        expected = run_plan(graph, plan, EngineStats())
        stream: list = []
        run_plan(graph, plan, EngineStats(), on_match=stream.append)
        for batch in BATCH_SIZES:
            got_stream: list = []
            got = run_plan_batched(
                graph, plan, EngineStats(), batch_roots=batch
            )
            run_plan_batched(
                graph, plan, EngineStats(),
                on_match=got_stream.append, batch_roots=batch,
            )
            assert got == expected
            assert got_stream == stream, "match order must be preserved"
            compiled_stream: list = []
            compiled = run_compiled_batched(
                graph, plan, EngineStats(),
                on_match=compiled_stream.append, batch_roots=batch,
            )
            assert compiled == expected
            assert compiled_stream == stream

    @given(data_graphs(min_n=2, max_n=10, labeled=True),
           patterns(min_n=2, max_n=3, labeled=True))
    @settings(max_examples=15, deadline=None)
    def test_labeled_graphs_match_per_root(self, graph, pattern):
        plan = PeregrineEngine().make_plan(pattern, graph)
        expected = run_plan(graph, plan, EngineStats())
        for batch in BATCH_SIZES:
            assert batched_variants(graph, plan, batch=batch) == expected

    @given(data_graphs(min_n=4, max_n=12), patterns(min_n=2, max_n=4))
    @settings(max_examples=10, deadline=None)
    def test_root_windows_match_per_root(self, graph, pattern):
        plan = PeregrineEngine().make_plan(pattern, graph)
        n = graph.num_vertices
        for window in ((0, n), (1, max(1, n // 2)), (n, n)):
            expected = run_plan(
                graph, plan, EngineStats(), root_window=window
            )
            got = batched_variants(graph, plan, root_window=window, batch=3)
            assert got == expected

    def test_empty_frontier_edgeless_graph(self):
        graph = DataGraph(6, [], name="edgeless")
        plan = PeregrineEngine().make_plan(TRIANGLE, graph)
        assert run_plan(graph, plan, EngineStats()) == 0
        for batch in BATCH_SIZES:
            assert batched_variants(graph, plan, batch=batch) == 0

    def test_batch_larger_than_root_count(self, tiny_graph):
        plan = PeregrineEngine().make_plan(TRIANGLE, tiny_graph)
        expected = run_plan(tiny_graph, plan, EngineStats())
        assert batched_variants(tiny_graph, plan, batch=4096) == expected

    def test_all_roots_pruned_by_label(self, small_labeled_graph):
        absent = int(max(small_labeled_graph.labels)) + 1
        pattern = Pattern(2, edges=[(0, 1)], labels=[absent, absent])
        plan = PeregrineEngine().make_plan(pattern, small_labeled_graph)
        assert run_plan(small_labeled_graph, plan, EngineStats()) == 0
        for batch in BATCH_SIZES:
            assert batched_variants(small_labeled_graph, plan, batch=batch) == 0

    def test_single_vertex_pattern(self, small_graph):
        plan = PeregrineEngine().make_plan(Pattern(1, edges=[]), small_graph)
        expected = run_plan(small_graph, plan, EngineStats())
        assert expected == small_graph.num_vertices
        assert batched_variants(small_graph, plan, batch=7) == expected

    def test_batch_roots_validated(self, small_graph):
        plan = PeregrineEngine().make_plan(TRIANGLE, small_graph)
        with pytest.raises(ValueError, match="batch_roots"):
            run_plan_batched(small_graph, plan, EngineStats(), batch_roots=0)
        with pytest.raises(ValueError, match="batch_roots"):
            run_compiled_batched(
                small_graph, plan, EngineStats(), batch_roots=-1
            )

    def test_segmented_frontier_matches(self, small_graph, monkeypatch):
        """A tiny segment cap forces mid-level frontier splitting."""
        import repro.engines.frontier as frontier

        monkeypatch.setattr(frontier, "MAX_FRONTIER_ROWS", 5)
        plan = PeregrineEngine().make_plan(FOUR_CYCLE, small_graph)
        expected = run_plan(small_graph, plan, EngineStats())
        assert batched_variants(small_graph, plan, batch=4096) == expected


# -- session level: the full matrix ------------------------------------------


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("agg_cls", AGGREGATIONS)
class TestBatchedSessionMatrix:
    def test_batched_equals_per_root_serial(
        self, engine_cls, agg_cls, small_graph
    ):
        """engines × aggregations × morphed/baseline × batch sizes, and
        for match lists both result sinks (store and stream)."""
        sinks = SINKS if agg_cls is MatchListAggregation else SINKS[:1]
        for enabled in (False, True):
            for batch in BATCH_SIZES:
                for sink in sinks:
                    assert_matches_oracle(
                        small_graph,
                        QUERIES,
                        engine_cls,
                        agg_cls,
                        sink=sink,
                        oracle_kwargs={"enabled": enabled},
                        enabled=enabled,
                        batch_roots=batch,
                    )

    def test_batched_equals_per_root_sharded(
        self, engine_cls, agg_cls, small_graph
    ):
        """The workers=4 axis: shards feed root batches independently."""
        sinks = SINKS if agg_cls is MatchListAggregation else SINKS[:1]
        for sink in sinks:
            assert_matches_oracle(
                small_graph,
                QUERIES,
                engine_cls,
                agg_cls,
                sink=sink,
                workers=4,
                executor="serial",
                batch_roots=7,
            )


@pytest.mark.parametrize("engine_cls", [PeregrineEngine, AutoZeroEngine])
def test_labeled_session_batched(engine_cls, small_labeled_graph):
    labeled = Pattern(3, edges=[(0, 1), (1, 2)], labels=[0, 1, 0])
    for batch in BATCH_SIZES:
        assert_matches_oracle(
            small_labeled_graph, [labeled], engine_cls, batch_roots=batch
        )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("batch", [None, 64])
def test_forced_morph_stream_with_vertex_filter(small_graph, workers, batch):
    """The default margin declines every streaming morph of QUERIES, so
    force one: Algorithm 3's fan-out behind a vertex filter must emit
    what Algorithm 2 stores, per-root and batched, serial and sharded."""

    def accept(match):
        return sum(match) % 3 != 0

    variant, _oracle = assert_matches_oracle(
        small_graph,
        [FOUR_CYCLE, TAILED_TRIANGLE],
        sink="stream",
        vertex_filter=accept,
        oracle_kwargs={"margin": 10.0},
        margin=10.0,
        workers=workers,
        executor="serial" if workers > 1 else None,
        batch_roots=batch,
    )
    assert any(variant.selection.morphed.values())
    assert any(c.mode == "union" for c in variant.plan.combine_steps)


def test_process_pool_batched(small_graph):
    """batch_roots must survive pickling into real pool workers."""
    assert_matches_oracle(small_graph, TRIANGLE, workers=2, batch_roots=7)


def test_run_facade_batch_roots_validated(small_graph):
    with pytest.raises(ValueError, match="batch_roots"):
        repro.run(small_graph, [TRIANGLE], options=repro.RunOptions(batch_roots=0))


def test_batched_runs_record_batched_setops(small_graph):
    engine = PeregrineEngine()
    engine.batch_roots = 64
    engine.count(small_graph, TRIANGLE)
    assert engine.stats.setops.batched > 0

    per_root = PeregrineEngine()
    per_root.count(small_graph, TRIANGLE)
    assert per_root.stats.setops.batched == 0


def test_autozero_count_set_batched_matches(small_graph):
    from repro.core.atlas import motif_patterns

    motifs = list(motif_patterns(4))
    plain = AutoZeroEngine().count_set(small_graph, motifs)
    batched_engine = AutoZeroEngine()
    batched_engine.batch_roots = 16
    batched = batched_engine.count_set(small_graph, motifs)
    assert batched == plain
    assert batched_engine.last_sharing_ratio == 1.0


# -- composition with fault tolerance and progress ----------------------------


class TestBatchedComposition:
    def test_crash_retry_matches_oracle(self, small_graph):
        for batch in BATCH_SIZES:
            assert_matches_oracle(
                small_graph,
                [TRIANGLE, FOUR_CYCLE],
                batch_roots=batch,
                faults=FaultPlan.crashes([0, 2]),
                retry=NOSLEEP,
            )

    def test_generous_deadline_matches_oracle(self, small_graph):
        assert_matches_oracle(
            small_graph, [TRIANGLE], batch_roots=7, deadline_seconds=600.0
        )

    def test_deadline_hang_still_degrades_to_partial(self, tiny_graph):
        result = repro.run(
            tiny_graph,
            [TRIANGLE],
            options=repro.RunOptions(
                batch_roots=7,
                deadline_seconds=0.25,
                faults=FaultPlan({2: FaultSpec("hang", times=None)}),
                retry=NOSLEEP,
            ),
        )
        assert isinstance(result, PartialRunResult)
        assert TRIANGLE in result.unresolved

    def test_checkpoint_resume_matches_oracle(self, small_graph, tmp_path):
        assert_matches_oracle(
            small_graph,
            [TRIANGLE],
            batch_roots=7,
            checkpoint=tmp_path / "batched.ckpt.jsonl",
        )

    def test_progress_completes_with_batches(self, small_graph):
        reporter = ProgressReporter(stream=None)
        assert_matches_oracle(
            small_graph, QUERIES, batch_roots=4, progress=reporter
        )
        snap = reporter.snapshot()
        assert snap.done_items == snap.total_items > 0
        assert snap.fraction_done == 1.0

    def test_tracer_records_batched_kernels(self, small_graph):
        from repro.observe.tracer import Tracer

        variant, _oracle = assert_matches_oracle(
            small_graph, [TRIANGLE], batch_roots=7, tracer=Tracer()
        )
        kernels = [
            s for s in variant.trace.spans if s.name.startswith("kernel.")
        ]
        assert kernels
        assert all("batched" in s.name for s in kernels)
        assert all(s.attributes["batch_roots"] == 7 for s in kernels)
        assert variant.trace.metrics["engine.setops.batched"] > 0
