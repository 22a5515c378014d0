"""Differential matrix for the vectorized batched-frontier kernel.

The contract is the strongest in the repo: for any graph, pattern,
engine, aggregation, session path and shard layout, the batched kernel
— the session default, or any explicit ``batch_roots=N`` — must return
results *byte-identical* to the per-root DFS reference kernel
(``batch_roots=0``, which every oracle run here uses): same counts, same
MNI tables, same match lists in the same order. The matrix pins that at
four layers:

* kernel level — :func:`repro.engines.frontier.run_plan_batched`
  against :func:`repro.engines.base.run_plan`, counts and match
  streams, over hypothesis-random graphs and patterns;
* the element budget — the same comparison at *any* budget down to 1,
  a fixed memory ceiling that does not grow with the graph, and
  cancellation within one segment;
* session level — every engine × aggregation × morphed/baseline ×
  kernel {default, chunk 1, chunk 7} × workers {1, 4} × result sink
  {store, stream} (the stream sink where the aggregation is a match
  list);
* composition — batching under shard retry, deadlines, checkpoints and
  progress reporting still matches the fault-free per-root oracle.

``--frontier-budget N`` (tests/conftest.py) re-runs this whole module
with the element budget pinned to N; CI makes a second pass at 1.
"""

from __future__ import annotations

import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.core.atlas import FOUR_CYCLE, TAILED_TRIANGLE, TRIANGLE, motif_patterns
from repro.core.pattern import Pattern
from repro.engines import frontier
from repro.engines.autozero.engine import AutoZeroEngine
from repro.engines.base import EngineStats, run_plan
from repro.engines.bigjoin.engine import BigJoinEngine
from repro.engines.frontier import DEFAULT_BATCH_ROOTS, run_plan_batched
from repro.engines.graphpi.engine import GraphPiEngine
from repro.engines.peregrine.engine import PeregrineEngine
from repro.engines.sumpa.engine import SumPAEngine
from repro.engines.recovery import Deadline
from repro.graph.datagraph import DataGraph
from repro.graph.generators import power_law_cluster
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

#: The kernel-level chunk axis: degenerate, odd, and far beyond any
#: fixture's root count (so the final chunk is always ragged).
BATCH_SIZES = (1, 7, 4096)

#: The session-level kernel axis, every entry compared with the per-root
#: oracle (``batch_roots=0``): the default (``None`` — also far beyond
#: any fixture's root count) and two explicit chunks.
SESSION_KERNELS = (None, 1, 7)

QUERIES = [TRIANGLE, TAILED_TRIANGLE.vertex_induced(), FOUR_CYCLE]

#: The result-sink axis: Algorithm 2's store and Algorithm 3's stream.
SINKS = ("store", "stream")

NOSLEEP = RetryPolicy(max_retries=3, backoff_seconds=0.0, sleep=lambda _s: None)


def batched_count(graph, plan, *, root_window=None, batch=7):
    return run_plan_batched(
        graph, plan, EngineStats(), root_window=root_window, batch_roots=batch
    )


#: The budget as shipped, read before ``--frontier-budget`` can pin it.
SHIPPED_BUDGET = frontier.FRONTIER_ELEMENT_BUDGET


def with_budget(budget):
    """Pin the frontier element budget for the duration of a block."""
    return mock.patch.object(frontier, "FRONTIER_ELEMENT_BUDGET", budget)


def assert_kernels_agree(graph, pattern, batch=DEFAULT_BATCH_ROOTS):
    """Batched count and block stream (unpacked) == per-root, exactly."""
    plan = PeregrineEngine().make_plan(pattern, graph)
    expected = run_plan(graph, plan, EngineStats())
    stream: list = []
    run_plan(graph, plan, EngineStats(), on_match=stream.append)
    got_stream: list = []
    assert run_plan_batched(graph, plan, EngineStats(), batch_roots=batch) == expected
    run_plan_batched(
        graph,
        plan,
        EngineStats(),
        on_block=lambda rows: got_stream.extend(map(tuple, rows.tolist())),
        batch_roots=batch,
    )
    assert got_stream == stream, "match order must be preserved"


# -- kernel level ------------------------------------------------------------


class TestKernelDifferential:
    @given(data_graphs(min_n=1, max_n=12), patterns(min_n=2, max_n=4))
    @settings(max_examples=20, deadline=None)
    def test_counts_and_streams_match_per_root(self, graph, pattern):
        for batch in BATCH_SIZES:
            assert_kernels_agree(graph, pattern, batch)

    @given(data_graphs(min_n=2, max_n=10, labeled=True),
           patterns(min_n=2, max_n=3, labeled=True))
    @settings(max_examples=15, deadline=None)
    def test_labeled_graphs_match_per_root(self, graph, pattern):
        plan = PeregrineEngine().make_plan(pattern, graph)
        expected = run_plan(graph, plan, EngineStats())
        for batch in BATCH_SIZES:
            assert batched_count(graph, plan, batch=batch) == expected

    @given(data_graphs(min_n=4, max_n=12), patterns(min_n=2, max_n=4))
    @settings(max_examples=10, deadline=None)
    def test_root_windows_match_per_root(self, graph, pattern):
        plan = PeregrineEngine().make_plan(pattern, graph)
        n = graph.num_vertices
        for window in ((0, n), (1, max(1, n // 2)), (n, n)):
            expected = run_plan(
                graph, plan, EngineStats(), root_window=window
            )
            got = batched_count(graph, plan, root_window=window, batch=3)
            assert got == expected

    def test_empty_frontier_edgeless_graph(self):
        graph = DataGraph(6, [], name="edgeless")
        plan = PeregrineEngine().make_plan(TRIANGLE, graph)
        assert run_plan(graph, plan, EngineStats()) == 0
        for batch in BATCH_SIZES:
            assert batched_count(graph, plan, batch=batch) == 0

    def test_batch_larger_than_root_count(self, tiny_graph):
        plan = PeregrineEngine().make_plan(TRIANGLE, tiny_graph)
        expected = run_plan(tiny_graph, plan, EngineStats())
        assert batched_count(tiny_graph, plan, batch=4096) == expected

    def test_all_roots_pruned_by_label(self, small_labeled_graph):
        absent = int(max(small_labeled_graph.labels)) + 1
        pattern = Pattern(2, edges=[(0, 1)], labels=[absent, absent])
        plan = PeregrineEngine().make_plan(pattern, small_labeled_graph)
        assert run_plan(small_labeled_graph, plan, EngineStats()) == 0
        for batch in BATCH_SIZES:
            assert batched_count(small_labeled_graph, plan, batch=batch) == 0

    def test_single_vertex_pattern(self, small_graph):
        plan = PeregrineEngine().make_plan(Pattern(1, edges=[]), small_graph)
        expected = run_plan(small_graph, plan, EngineStats())
        assert expected == small_graph.num_vertices
        assert batched_count(small_graph, plan, batch=7) == expected

    def test_batch_roots_validated(self, small_graph):
        plan = PeregrineEngine().make_plan(TRIANGLE, small_graph)
        with pytest.raises(ValueError, match="batch_roots"):
            run_plan_batched(small_graph, plan, EngineStats(), batch_roots=0)
        with pytest.raises(ValueError, match="batch_roots"):
            run_plan_batched(small_graph, plan, EngineStats(), batch_roots=-1)

    def test_segmented_frontier_matches(self, small_graph):
        """A tiny element budget forces mid-level frontier splitting."""
        plan = PeregrineEngine().make_plan(FOUR_CYCLE, small_graph)
        expected = run_plan(small_graph, plan, EngineStats())
        whole = EngineStats()
        with with_budget(SHIPPED_BUDGET):
            assert run_plan_batched(small_graph, plan, whole) == expected
        with with_budget(5):
            split = EngineStats()
            assert run_plan_batched(small_graph, plan, split) == expected
        assert split.setops.batched > whole.setops.batched
        assert split.setops.elements_scanned == whole.setops.elements_scanned


# -- the element budget ------------------------------------------------------

#: A budget draw: the degenerate 1, one below the graph's widest row (so
#: at least one row is itself cut into pieces), or anything small.
BUDGETS = st.one_of(st.sampled_from(["one", "below-widest"]), st.integers(1, 48))

#: Vertex 2 has no backward neighbour: its level tiles every frontier
#: row over the whole vertex range — alone, and behind an anti-edge
#: probe that filters the tiled candidates.
TILED = Pattern(3, edges=[(0, 1)])
TILED_ANTI = Pattern(3, edges=[(0, 1)], anti_edges=[(0, 2)])


def resolve_budget(draw, graph) -> int:
    if draw == "one":
        return 1
    if draw == "below-widest":
        return max(1, graph.max_degree - 1)
    return draw


class TestElementBudget:
    @given(data_graphs(min_n=1, max_n=12), patterns(min_n=2, max_n=4), BUDGETS)
    @settings(max_examples=25, deadline=None)
    def test_any_budget_matches_per_root(self, graph, pattern, budget):
        """Random patterns cover bounded and unbounded levels, anti-edges
        and disconnected (tiled) levels."""
        with with_budget(resolve_budget(budget, graph)):
            assert_kernels_agree(graph, pattern)

    @given(
        data_graphs(min_n=2, max_n=10, labeled=True),
        patterns(min_n=2, max_n=3, labeled=True),
        BUDGETS,
    )
    @settings(max_examples=15, deadline=None)
    def test_any_budget_matches_per_root_labeled(self, graph, pattern, budget):
        with with_budget(resolve_budget(budget, graph)):
            assert_kernels_agree(graph, pattern)

    @pytest.mark.parametrize("pattern", [TILED, TILED_ANTI], ids=["plain", "anti"])
    @given(budget=BUDGETS)
    @settings(max_examples=6, deadline=None)
    def test_tiled_level_splits_by_base_width(self, pattern, small_graph, budget):
        with with_budget(resolve_budget(budget, small_graph)):
            assert_kernels_agree(small_graph, pattern)

    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize(
        "agg_cls", [CountAggregation, MatchListAggregation, MNIAggregation]
    )
    @given(budget=BUDGETS)
    @settings(max_examples=4, deadline=None)
    def test_sessions_match_at_any_budget(
        self, engine_cls, agg_cls, small_graph, small_labeled_graph, budget
    ):
        """Five engines × count / match list / MNI, unlabeled and labeled:
        the default session under a shrunken budget == the per-root one."""
        labeled = Pattern(3, edges=[(0, 1), (1, 2)], labels=[0, 1, 0])
        for graph, queries in (
            (small_graph, QUERIES),
            (small_labeled_graph, [labeled]),
        ):
            with with_budget(resolve_budget(budget, graph)):
                assert_matches_oracle(graph, queries, engine_cls, agg_cls)

    def test_peak_memory_does_not_grow_with_the_graph(self):
        """One fixed ceiling holds a 900- and a 3,000-vertex 4-motif count.

        The second graph has 3.3x the vertices, 1.7x the edges and a
        wider hub than the first; under the old row cap the first alone
        peaked at 43.5 MiB. ``strategy="direct"`` sends all six motifs
        through the default kernel itself (``auto`` would decompose some
        into a per-match Python stream, which tracemalloc slows tenfold
        and which holds no frontier); the graph's lazily built,
        graph-sized probe index is not transient memory and is built
        before tracing starts.
        """
        ceiling = int(1.5 * 2**20)
        motifs = list(motif_patterns(4))
        options = repro.RunOptions(strategy="direct")
        assert options.resolved_batch_roots() == DEFAULT_BATCH_ROOTS
        for vertices, attach in ((900, 6), (3000, 3)):
            graph = power_law_cluster(vertices, attach, 0.5, seed=1)
            graph.adjacency_keys, graph.dense_adjacency
            tracemalloc.start()
            try:
                with with_budget(SHIPPED_BUDGET):
                    repro.run(graph, motifs, options=options)
                _now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= ceiling, f"|V|={vertices}: peak {peak} B > {ceiling} B"

    def test_expired_deadline_stops_within_one_segment(self, medium_graph):
        """Cancellation latency is one segment, counted in kernel ticks:
        the deadline's clock *is* the ``batched`` counter, so expiry
        lands mid-chunk and no wall time is involved."""
        plan = PeregrineEngine().make_plan(FOUR_CYCLE, medium_graph)
        full = EngineStats()
        with with_budget(64):
            run_plan_batched(medium_graph, plan, full)
            # A segment ticks once for its cuts, once for its gather and
            # once per membership probe of its level.
            per_segment = 2 + max(
                len(lv.backward_neighbors) - 1 + len(lv.backward_anti)
                for lv in plan.levels[1:]
            )
            stats = EngineStats()
            expire_at = full.setops.batched // 2
            deadline = Deadline(expire_at, clock=lambda: stats.setops.batched)
            count = run_plan_batched(
                medium_graph, plan, stats, should_stop=deadline.expired
            )
        assert count == 0 and stats.matches == 0
        assert expire_at <= stats.setops.batched <= expire_at + per_segment
        assert medium_graph.num_vertices <= DEFAULT_BATCH_ROOTS  # one chunk


# -- session level: the full matrix ------------------------------------------


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("agg_cls", AGGREGATIONS)
class TestBatchedSessionMatrix:
    def test_batched_equals_per_root_serial(
        self, engine_cls, agg_cls, small_graph
    ):
        """engines × aggregations × morphed/baseline × kernels, and for
        match lists both result sinks (store and stream)."""
        sinks = SINKS if agg_cls is MatchListAggregation else SINKS[:1]
        for enabled in (False, True):
            for batch in SESSION_KERNELS:
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
    for batch in SESSION_KERNELS:
        assert_matches_oracle(
            small_labeled_graph, [labeled], engine_cls, batch_roots=batch
        )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("batch", [None, 0, 64])
def test_forced_morph_stream_with_vertex_filter(small_graph, workers, batch):
    """The default margin declines every streaming morph of QUERIES, so
    force one: Algorithm 3's fan-out behind a vertex filter must emit
    what Algorithm 2 stores, per-root and batched (default and explicit
    chunk), serial and sharded."""

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
        repro.run(small_graph, [TRIANGLE], options=repro.RunOptions(batch_roots=-1))


def test_default_is_batched_and_zero_is_per_root(small_graph):
    """The policy, read off the kernel spans a traced run leaves."""

    def kernels(**options):
        result = repro.run(
            small_graph, [TRIANGLE], options=repro.RunOptions(trace=True, **options)
        )
        return {s.name for s in result.trace.spans if s.name.startswith("kernel")}

    assert kernels() == {"kernel.batched"}
    assert kernels(batch_roots=7) == {"kernel.batched"}
    assert kernels(batch_roots=0) == {"kernel"}
    assert kernels(batch_roots=0, engine="autozero") == {"kernel.compiled"}
    assert kernels(engine="autozero") == {"kernel.batched"}
    # Mechanism level: a bare engine stays per-root until told otherwise.
    assert PeregrineEngine().batch_roots is None
    assert repro.RunOptions().resolved_batch_roots() == DEFAULT_BATCH_ROOTS
    assert repro.RunOptions(batch_roots=0).resolved_batch_roots() is None
    assert repro.RunOptions(batch_roots=7).resolved_batch_roots() == 7


def test_per_root_option_round_trips_every_surface():
    """``batch_roots=0`` survives the wire, the service journal and the CLI."""
    from repro.cli import _run_options, build_parser
    from repro.serve.state import cache_key_to_wire, wire_to_cache_key

    options = repro.RunOptions(batch_roots=0)
    wire = json.loads(json.dumps(options.to_dict()))
    assert wire["batch_roots"] == 0
    assert repro.RunOptions.from_dict(wire) == options
    assert repro.RunOptions.from_dict({"batch_roots": 0}).batch_roots == 0

    key = ("fp", ("triangle",), "count", "peregrine", "auto", True, 0.6, 1, 0)
    assert wire_to_cache_key(json.loads(json.dumps(cache_key_to_wire(key)))) == key

    parser = build_parser()
    args = parser.parse_args(
        ["count", "--graph", "mico", "--pattern", "triangle", "--batch-roots", "0"]
    )
    assert _run_options(args).batch_roots == 0
    args = parser.parse_args(["count", "--graph", "mico", "--pattern", "triangle"])
    assert _run_options(args).batch_roots is None

    for bad in (-1, -2048):
        with pytest.raises(ValueError, match="batch_roots must be >= 0"):
            repro.RunOptions(batch_roots=bad)
        with pytest.raises(ValueError, match="batch_roots must be >= 0"):
            repro.RunOptions.from_dict({"batch_roots": bad})


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
