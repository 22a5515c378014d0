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
* composition — batching under slow shards, deadlines, checkpoints and
  progress reporting still matches the fault-free per-root oracle.

``--frontier-budget N`` (tests/conftest.py) re-runs this whole module
with the element budget pinned to N; CI makes a second pass at 1.
"""

from __future__ import annotations

import json
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
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
)
from repro.core.atlas import FOUR_CYCLE, TAILED_TRIANGLE, TRIANGLE, motif_patterns
from repro.core.pattern import Pattern
from repro.engines import frontier
from repro.engines.autozero.engine import AutoZeroEngine
from repro.engines.base import EngineStats, run_plan
from repro.engines.bigjoin.engine import BigJoinEngine
from repro.engines.execution import SerialShardExecutor, ThreadShardExecutor, run_sharded
from repro.engines.frontier import DEFAULT_BATCH_ROOTS, run_plan_batched
from repro.engines.graphpi.engine import GraphPiEngine
from repro.engines.plan import ExplorationPlan, PlanLevel
from repro.engines.peregrine.engine import PeregrineEngine
from repro.engines.sumpa.engine import SumPAEngine
from repro.engines.recovery import Deadline
from repro.engines.setops import SetOpStats
from repro.graph.datagraph import (
    _HASH_MULTIPLIERS,
    COLLIDED,
    DENSE_ADJACENCY_MAX_BYTES,
    EMPTY_SLOT,
    DataGraph,
)
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
    assert_plan_kernels_agree(graph, PeregrineEngine().make_plan(pattern, graph), batch)


def assert_plan_kernels_agree(graph, plan, batch=DEFAULT_BATCH_ROOTS):
    """:func:`assert_kernels_agree` for an explicit plan."""
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
        """One fixed ceiling holds a 900- and a 3,000-vertex 4-motif count,
        and the larger graph's peak stays within 1.25x of the smaller's.

        The second graph has 3.3x the vertices, 1.7x the edges and a
        wider hub than the first; under the old row cap the first alone
        peaked at 43.5 MiB. The peaks read 0.97-1.06x apart at a 4 k-element
        budget and 1.05-1.06x at 8 k: what a run holds is the budget's,
        not the graph's. ``strategy="direct"`` sends all six motifs
        through the default kernel itself (``auto`` would decompose some
        into a per-match Python stream, which tracemalloc slows tenfold
        and which holds no frontier); the graph-sized state a count run
        builds lazily — the degree-ordered copy it matches, and that
        copy's probe index, membership table and position arrays — is
        not transient memory and is built before tracing starts.
        """
        ceiling = int(1.5 * 2**20)
        motifs = list(motif_patterns(4))
        options = repro.RunOptions(strategy="direct")
        assert options.resolved_batch_roots() == DEFAULT_BATCH_ROOTS
        peaks = []
        for vertices, attach in ((900, 6), (3000, 3)):
            graph = power_law_cluster(vertices, attach, 0.5, seed=1)
            ordered = graph.degree_ordered
            ordered.adjacency_keys, ordered.adjacency_filter
            ordered.row_splits, ordered.reverse_positions
            tracemalloc.start()
            try:
                with with_budget(SHIPPED_BUDGET):
                    repro.run(graph, motifs, options=options)
                _now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= ceiling, f"|V|={vertices}: peak {peak} B > {ceiling} B"
            peaks.append(peak)
        small, large = peaks
        assert large <= 1.25 * small, f"peak grew {large / small:.2f}x with the graph"

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


# -- label runs: labeled levels gather only their label ----------------------

#: Label alphabets that are not ``0..L-1``: the runs must key labels by
#: value, never by position.
LABEL_SPELLINGS = {
    "dense": lambda i: i,
    "negative": lambda i: -1 - i,
    "sparse": lambda i: 7 * i + 3,
    "large": lambda i: 2**40 + i,
}

#: Labeled shapes (``a``/``b``/``c`` are filled in per example). The
#: symmetric ones carry symmetry-breaking bounds on labeled anchored
#: levels, and some matching orders bound one level from both sides.
#: ``3P(a,b,c)`` matched centre first has a lone-anchor level whose
#: earlier column is adjacent to the anchor but may carry another label.
LABELED_SHAPES = {
    "3P(a,b,a)": (3, [(0, 1), (1, 2)], "aba"),
    "3P(a,b,c)": (3, [(0, 1), (1, 2)], "abc"),
    "C4(a,a,a,a)": (4, [(0, 1), (1, 2), (2, 3), (3, 0)], "aaaa"),
    "S3(b;a,a,a)": (4, [(0, 1), (0, 2), (0, 3)], "baaa"),
    "K3(a,a,a)": (3, [(0, 1), (1, 2), (0, 2)], "aaa"),
}


@st.composite
def labeled_cases(draw):
    """A labeled graph and a plan over a labeled pattern.

    Graphs draw from 1, 2, 8 or 64 labels under one of the spellings —
    every vertex from the whole range, or from a palette of at most three
    of its values so that labels repeat on a small graph. Pattern labels
    come from the graph's labels, sometimes plus one absent from it. The
    pattern is random (any edges and anti-edges) or one of
    :data:`LABELED_SHAPES`, and its matching order is random too, so
    bounds land on either side.
    """
    n = draw(st.integers(1, 12))
    num_labels = draw(st.sampled_from([1, 2, 8, 64]))
    spell = LABEL_SPELLINGS[draw(st.sampled_from(sorted(LABEL_SPELLINGS)))]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, mask) if keep]
    values = st.integers(0, num_labels - 1)
    if draw(st.booleans()):
        values = st.sampled_from(
            draw(st.lists(values, min_size=1, max_size=3, unique=True))
        )
    labels = [spell(draw(values)) for _ in range(n)]
    graph = DataGraph(n, edges, labels=labels, name="labeled-runs")
    alphabet = sorted(set(labels))[:3]
    if draw(st.integers(0, 3)) == 0:
        alphabet.append(spell(num_labels))  # no vertex carries it
    shape = draw(st.sampled_from(["random", *sorted(LABELED_SHAPES)]))
    if shape == "random":
        skeleton = draw(patterns(min_n=2, max_n=4))
        labels = st.lists(
            st.sampled_from(alphabet), min_size=skeleton.n, max_size=skeleton.n
        )
        pattern = skeleton.with_labels(draw(labels))
    else:
        size, shape_edges, spelling = LABELED_SHAPES[shape]
        letters = {c: draw(st.sampled_from(alphabet)) for c in sorted(set(spelling))}
        pattern = Pattern(size, shape_edges, labels=[letters[c] for c in spelling])
    order = draw(st.permutations(list(range(pattern.n))))
    return graph, ExplorationPlan.build(pattern, order)


def brute_candidates(graph, level, row):
    """Every vertex ``level`` accepts after the partial match ``row``."""
    out = []
    for v in range(graph.num_vertices):
        if level.label is not None and graph.label(v) != level.label:
            continue
        if v in row:
            continue
        if not all(graph.has_edge(row[j], v) for j in level.backward_neighbors):
            continue
        if any(graph.has_edge(row[j], v) for j in level.backward_anti):
            continue
        if any(v >= row[j] for j in level.upper_bounds):
            continue
        if any(v <= row[j] for j in level.lower_bounds):
            continue
        out.append(v)
    return out


def assert_level_counts_brute(graph, plan):
    """``level_counts`` == a brute-force count, row by row, at every level."""
    rows = [[]]
    for k, level in enumerate(plan.levels):
        if k:
            emb = np.array(rows, dtype=graph.indices.dtype).reshape(len(rows), k)
            got = frontier.level_counts(graph, level, emb, SetOpStats())
            want = [len(brute_candidates(graph, level, row)) for row in rows]
            assert got.tolist() == want, f"level {k} of {plan.describe()}"
        rows = [row + [v] for row in rows for v in brute_candidates(graph, level, row)]


class TestLabelRuns:
    @given(labeled_cases(), st.sampled_from(["one", "default"]))
    @settings(max_examples=200, deadline=None)
    def test_labeled_property(self, case, budget):
        """Batched == per-root (count and ordered stream), and
        ``level_counts`` == brute force, at budget 1 and as shipped."""
        graph, plan = case
        with with_budget(1 if budget == "one" else SHIPPED_BUDGET):
            for batch in (DEFAULT_BATCH_ROOTS, 3):
                assert_plan_kernels_agree(graph, plan, batch)
            assert_level_counts_brute(graph, plan)

    def test_some_order_bounds_a_labeled_level_from_both_sides(self):
        """The shapes do reach a run cut by bounds at both ends."""
        size, edges, _ = LABELED_SHAPES["C4(a,a,a,a)"]
        pattern = Pattern(size, edges, labels=[5] * size)
        plan = ExplorationPlan.build(pattern, [0, 3, 1, 2])
        assert any(
            lv.label is not None and lv.backward_neighbors
            and lv.lower_bounds and lv.upper_bounds
            for lv in plan.levels
        )

    @pytest.mark.parametrize("end_labels", [(0, 0), (0, 1), (2, 1)])
    def test_lone_anchor_count_subtracts_same_label_columns(
        self, small_labeled_graph, end_labels
    ):
        """``level_counts``' lone-anchor shortcut on a labeled level: the
        run length, minus only the earlier columns adjacent to the anchor
        that carry the level's label."""
        first, last = end_labels
        pattern = Pattern(3, [(0, 1), (1, 2)], labels=[first, 2, last])
        plan = ExplorationPlan.build(pattern, [1, 0, 2])
        lone = plan.levels[2]
        assert len(lone.backward_neighbors) == 1 and lone.non_adjacent
        assert_level_counts_brute(small_labeled_graph, plan)

    def test_fingerprint_ignores_runs(self, small_labeled_graph):
        """Label runs are derived storage: never part of the fingerprint."""
        g = small_labeled_graph
        untouched, built = (
            DataGraph(g.num_vertices, g.edge_array(), labels=g.labels, name="twin")
            for _ in range(2)
        )
        before = built.fingerprint
        built.label_runs
        del built.__dict__["fingerprint"]
        assert built.fingerprint == before == untouched.fingerprint
        assert "label_runs" not in untouched.__dict__

    def test_pool_labeled_count_matches_serial(self, small_labeled_graph):
        """Pool threads build the graph's runs on first use, once each
        or racing; either way their count is the inline one."""
        graph = DataGraph(
            small_labeled_graph.num_vertices,
            small_labeled_graph.edge_array(),
            labels=small_labeled_graph.labels,
            name="fresh",
        )
        labeled = Pattern(3, edges=[(0, 1), (1, 2)], labels=[0, 1, 0])
        aggregation = CountAggregation()
        per_root = PeregrineEngine().count(graph, labeled)
        engine = PeregrineEngine()
        engine.batch_roots = DEFAULT_BATCH_ROOTS
        with SerialShardExecutor(1) as serial:
            expected = run_sharded(engine, graph, labeled, aggregation, serial)
        with ThreadShardExecutor(workers=2) as pool:
            got = run_sharded(engine, graph, labeled, aggregation, pool)
        assert got == expected == per_root > 0

    def test_runs_are_rows_by_label_then_id(self, small_labeled_graph):
        graph = small_labeled_graph
        runs = graph.label_runs
        n = graph.num_vertices
        assert runs.keys.dtype == graph.adjacency_keys.dtype
        assert runs.neighbors.dtype == graph.indices.dtype
        assert len(runs.keys) == len(runs.neighbors) == len(graph.indices)
        assert not runs.keys.flags.writeable and not runs.neighbors.flags.writeable
        for u in range(n):
            lo, hi = graph.indptr[u], graph.indptr[u + 1]
            row = graph.neighbors(u).tolist()
            want = sorted(row, key=lambda v: (graph.label(v), v))
            assert runs.neighbors[lo:hi].tolist() == want
            for label, members in graph.vertices_by_label.items():
                base = u * n + runs.offsets[label]
                a = np.searchsorted(runs.keys, base)
                b = np.searchsorted(runs.keys, base + len(members))
                assert runs.neighbors[a:b].tolist() == [
                    v for v in row if graph.label(v) == label
                ]

    def test_wide_graph_packs_int64_keys(self):
        """Past n = 46,341 the packed keys need 64 bits; cuts and probes
        must still be packed in the keys' own dtype."""
        n = 50_000
        rng = np.random.default_rng(3)
        edges = rng.integers(0, n, size=(3_000, 2))
        # A dense corner at the top ids, so labeled paths exist where
        # ``owner * n`` is past 2**31.
        edges[:1_500] = n - 1 - edges[:1_500] % 300
        graph = DataGraph(n, edges, labels=-(np.arange(n) % 3), name="wide")
        assert graph.label_runs.keys.dtype == np.int64
        for labels in ([0, -1, 0], [-2, -2, -2]):
            pattern = Pattern(3, [(0, 1), (1, 2)], labels=labels)
            plan = PeregrineEngine().make_plan(pattern, graph)
            expected = run_plan(graph, plan, EngineStats())
            assert expected > 0
            assert batched_count(graph, plan, batch=DEFAULT_BATCH_ROOTS) == expected

    @given(labeled_cases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_run_columns_equal_searched_cuts(self, case, seed):
        """A labeled anchored level's cuts, unbounded sides read off the
        per-label columns, == two binary searches of every row's base
        key: for every label of the graph and of the pattern (absent
        ones too), every label spelling, rows without the label, and
        each side bounded or not."""
        graph, plan = case
        runs = graph.label_runs
        n = graph.num_vertices
        dtype = graph.indices.dtype
        rng = np.random.default_rng(seed)
        emb = rng.integers(0, n, size=(3 * n, 3)).astype(dtype)
        emb[:n, 0] = np.arange(n)  # every row once
        labels = set(graph.vertices_by_label) | {lv.label for lv in plan.levels}
        for label in sorted(labels):
            members = graph.vertices_by_label.get(label)
            for lower, upper in ((), ()), ((1,), ()), ((), (2,)), ((1,), (2,)):
                level = PlanLevel(3, (0,), (), upper, lower, (), label)
                values, starts, counts = frontier.level_cuts(
                    graph, level, emb, SetOpStats()
                )
                if members is None:
                    assert not counts.any()
                    continue
                base = emb[:, 0].astype(np.int64) * n + runs.offsets[label]
                lo = base + (
                    np.searchsorted(members, emb[:, 1], side="right") if lower else 0
                )
                hi = base + (
                    np.searchsorted(members, emb[:, 2], side="left")
                    if upper
                    else len(members)
                )
                want_starts = np.searchsorted(runs.keys, lo)
                want_ends = np.searchsorted(runs.keys, hi)
                want_counts = np.maximum(want_ends - want_starts, 0)
                assert values is runs.neighbors
                assert starts.tolist() == want_starts.tolist()
                assert counts.tolist() == want_counts.tolist()

    def test_columns_are_built_per_touched_label(self, small_labeled_graph):
        """A label's bounds are its own column and the next label's
        (``indptr`` at either end), built once and read-only."""
        graph = DataGraph(
            small_labeled_graph.num_vertices,
            small_labeled_graph.edge_array(),
            labels=small_labeled_graph.labels,
        )
        labels = list(graph.vertices_by_label)
        first = graph.label_run_bounds(labels[0])
        assert first[0] is graph.label_run_bounds(labels[0])[0]
        assert first[0].tolist() == graph.indptr[:-1].tolist()
        last = graph.label_run_bounds(labels[-1])
        assert last[1].tolist() == graph.indptr[1:].tolist()
        assert not first[1].flags.writeable
        rare = min(labels, key=lambda label: len(graph.vertices_by_label[label]))
        starts, ends = graph.label_run_bounds(rare)
        without = [
            u
            for u in range(graph.num_vertices)
            if all(graph.label(v) != rare for v in graph.neighbors(u))
        ]
        assert without, "some row lacks the rarest label"
        assert all(starts[u] == ends[u] for u in without)

    def test_unlabeled_graphs_never_build_runs(self, small_graph, small_labeled_graph):
        """Only a labeled level on a labeled graph builds the runs."""
        unlabeled = DataGraph(
            small_graph.num_vertices, small_graph.edge_array(), name="fresh"
        )
        labeled_query = Pattern(3, edges=[(0, 1), (1, 2)], labels=[0, 1, 0])
        for query in (TRIANGLE, labeled_query):
            plan = PeregrineEngine().make_plan(query, unlabeled)
            batched_count(unlabeled, plan)
        assert "label_runs" not in unlabeled.__dict__
        with pytest.raises(ValueError, match="labeled graph"):
            unlabeled.label_runs

        labeled = DataGraph(
            small_labeled_graph.num_vertices,
            small_labeled_graph.edge_array(),
            labels=small_labeled_graph.labels,
        )
        batched_count(labeled, PeregrineEngine().make_plan(TRIANGLE, labeled))
        assert "label_runs" not in labeled.__dict__
        batched_count(labeled, PeregrineEngine().make_plan(labeled_query, labeled))
        assert "label_runs" in labeled.__dict__


# -- position arrays: bound cuts read, not searched ---------------------------


@st.composite
def position_graphs(draw):
    """A graph for the position arrays: random, generator-built, edgeless,
    or edges among a few vertices with the rest isolated — optionally
    labeled, and optionally its degree-ordered copy."""
    kind = draw(st.sampled_from(["random", "generator", "edgeless", "isolated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        graph = draw(data_graphs(min_n=1, max_n=14))
    elif kind == "generator":
        n, attach = draw(st.integers(5, 80)), draw(st.integers(1, 4))
        graph = power_law_cluster(n, attach, 0.5, seed=int(rng.integers(99)))
    elif kind == "edgeless":
        graph = DataGraph(draw(st.integers(1, 20)), [])
    else:
        n = draw(st.integers(2, 40))
        busy = rng.choice(n, size=draw(st.integers(2, n)), replace=False)
        graph = DataGraph(n, busy[rng.integers(0, len(busy), size=(3 * n, 2))])
    if draw(st.booleans()):
        graph = DataGraph.from_csr(
            graph.num_vertices,
            graph.indptr,
            graph.indices,
            rng.integers(0, 3, size=graph.num_vertices),
        )
    return graph.degree_ordered if draw(st.booleans()) else graph


def edge_heads(graph):
    """The head ``u`` of the directed edge at every flat position."""
    return np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))


def searched_splits(graph):
    """Each row's first position above its own vertex, by a binary search
    of the row."""
    return [
        graph.indptr[u] + np.searchsorted(graph.neighbors(u), u, side="right")
        for u in range(graph.num_vertices)
    ]


def searched_reverse(graph):
    """Each directed edge ``u → v``'s position of ``u`` in ``v``'s row, by
    a binary search of that row."""
    return [
        graph.indptr[v] + np.searchsorted(graph.neighbors(v), u)
        for u, v in zip(edge_heads(graph).tolist(), graph.indices.tolist())
    ]


def searched_cuts(graph, level, emb):
    """``(starts, counts)`` of an anchored level by binary search alone.

    The kernel's cuts before any was read off a position, kept as the
    oracle: every row's bounds become keys of the packed CSR array — or,
    on a labeled level of a labeled graph, of its label run — and both
    ends are searched.
    """
    n = graph.num_vertices
    owners = emb[:, level.backward_neighbors[0]].astype(np.int64)
    lower = upper = None
    if level.lower_bounds:
        lower = emb[:, list(level.lower_bounds)].astype(np.int64).max(axis=1)
    if level.upper_bounds:
        upper = emb[:, list(level.upper_bounds)].astype(np.int64).min(axis=1)
    if level.label is not None and graph.is_labeled:
        members = graph.vertices_by_label.get(level.label)
        if members is None:
            return np.zeros(len(emb), dtype=np.int64), np.zeros(len(emb), dtype=np.int64)
        runs = graph.label_runs
        keys = runs.keys.astype(np.int64)
        base = owners * n + runs.offsets[level.label]
        lo = base + (0 if lower is None else np.searchsorted(members, lower, side="right"))
        hi = base + (len(members) if upper is None else np.searchsorted(members, upper))
    else:
        keys = graph.adjacency_keys.astype(np.int64)
        base = owners * n
        lo = base if lower is None else base + lower + 1
        hi = base + (n if upper is None else upper)
    starts = np.searchsorted(keys, lo)
    return starts, np.maximum(np.searchsorted(keys, hi) - starts, 0)


class TestRowPositions:
    """:attr:`DataGraph.row_splits` and :attr:`DataGraph.reverse_positions`
    == a binary search of each row, on every kind of graph."""

    @given(position_graphs())
    @settings(max_examples=100, deadline=None)
    def test_splits_equal_searched_reference(self, graph):
        splits = graph.row_splits
        assert splits.dtype == np.int64 and not splits.flags.writeable
        assert splits.tolist() == searched_splits(graph)
        for u in range(graph.num_vertices):
            assert (graph.indices[graph.indptr[u] : splits[u]] < u).all()
            assert (graph.indices[splits[u] : graph.indptr[u + 1]] > u).all()

    @given(position_graphs())
    @settings(max_examples=100, deadline=None)
    def test_reverse_positions_are_an_involution_that_swaps_ends(self, graph):
        reverse = graph.reverse_positions
        heads = edge_heads(graph)
        assert reverse.dtype == np.int32 and not reverse.flags.writeable
        assert len(reverse) == len(graph.indices)
        assert reverse[reverse].tolist() == list(range(len(reverse)))
        assert graph.indices[reverse].tolist() == heads.tolist()
        assert heads[reverse].tolist() == graph.indices.tolist()
        assert reverse.tolist() == searched_reverse(graph)


#: Bound columns of the cut property over ``(u, a, x)`` rows, ``a`` a
#: neighbour of ``u`` and ``x`` any vertex: none, the anchor alone, the
#: other end of the row's edge alone, an unrelated column, and two.
CUT_BOUNDS = ((), ("anchor",), ("through",), (2,), ("anchor", 2), ("through", 2))


class TestPositionCuts:
    @given(position_graphs(), st.integers(0, 2**32 - 1), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_cuts_equal_searched_reference(self, graph, seed, rows):
        """Every bounded level's ``(starts, counts)`` == two binary
        searches: lower and upper bounds on the anchor itself, on the
        vertex the anchor was gathered from (with and without its
        positions), on other columns and on several, anchored at either
        end of an edge, unlabeled and labeled levels on unlabeled and
        labeled graphs."""
        rng = np.random.default_rng(seed)
        n = graph.num_vertices
        dtype = graph.indices.dtype
        if len(graph.indices):
            at = rng.integers(0, len(graph.indices), size=rows)
            emb = np.column_stack(
                (edge_heads(graph)[at], graph.indices[at], rng.integers(0, n, size=rows))
            ).astype(dtype)
            back = np.array(searched_reverse(graph), dtype=np.int64)[at]
        else:
            at = back = None
            emb = rng.integers(0, n, size=(rows, 3)).astype(dtype)
        labels = [None, *sorted(graph.vertices_by_label)[:1], 99]
        axes = product((0, 1), labels, CUT_BOUNDS, CUT_BOUNDS)
        for anchor, label, lower, upper in axes:
            other = 1 - anchor
            spell = {"anchor": anchor, "through": other}
            level = PlanLevel(
                3,
                (anchor,),
                (),
                tuple(spell.get(j, j) for j in upper),
                tuple(spell.get(j, j) for j in lower),
                (),
                label,
            )
            want_starts, want_counts = searched_cuts(graph, level, emb)
            for through in (None, (other, at if anchor else back)):
                if through is not None and at is None:
                    continue
                stats = SetOpStats()
                values, starts, counts = frontier.level_cuts(
                    graph, level, emb, stats, anchor_positions=through
                )
                assert stats.batched == 1
                assert np.asarray(starts).tolist() == want_starts.tolist()
                assert counts.tolist() == want_counts.tolist()

    def test_the_first_level_of_an_edge_reads_the_split(self, small_graph):
        """``v < u`` in ``N(u)`` — the first level of every edge or clique
        prefix — builds the split and needs no key array."""
        graph = DataGraph(small_graph.num_vertices, small_graph.edge_array())
        level = PlanLevel(1, (0,), (), (0,), (), (), None)
        emb = graph.all_vertices[:, None]
        _values, starts, counts = frontier.level_cuts(graph, level, emb, SetOpStats())
        assert starts.tolist() == graph.indptr[:-1].tolist()
        assert counts.tolist() == (graph.row_splits - graph.indptr[:-1]).tolist()
        assert "reverse_positions" not in graph.__dict__


# -- membership table ---------------------------------------------------------

#: Vertex-count ranges of the three membership-table regimes: the exact
#: dense matrix, a hashed filter over 32-bit keys, and one over 64-bit
#: keys (``n² - 1`` past ``2³¹ - 1``).
MEMBERSHIP_REGIMES = {
    "exact": (1, 1024),
    "hashed-32": (1025, 46_340),
    "hashed-64": (46_342, 60_000),
}


def searched_membership(graph, owners, cand):
    """Membership by one binary search of the sorted directed-edge keys."""
    keys = graph.adjacency_keys.astype(np.int64)
    probes = owners.astype(np.int64) * graph.num_vertices + cand
    if len(keys) == 0:
        return np.zeros(len(probes), dtype=bool)
    pos = np.minimum(np.searchsorted(keys, probes), len(keys) - 1)
    return keys[pos] == probes


def reference_table(table, graph):
    """A hashed table by its definition: per slot, ``EMPTY_SLOT``, the
    tag every edge key on it shares, or ``COLLIDED``."""
    slots, tags = table.hash(graph.adjacency_keys)
    by_slot: dict[int, set[int]] = {}
    for slot, tag in zip(slots.tolist(), tags.tolist()):
        by_slot.setdefault(slot, set()).add(tag)
    want = np.full(len(table.table), EMPTY_SLOT, dtype=np.uint16)
    for slot, seen in by_slot.items():
        want[slot] = seen.pop() if len(seen) == 1 else COLLIDED
    return want


@st.composite
def membership_cases(draw, regime):
    """A sparse random graph of the regime's size (with a dense corner
    at the top ids, where keys are largest) and a probe set: empty, all
    edges, all non-edges, or a mix."""
    low, high = MEMBERSHIP_REGIMES[regime]
    n = draw(st.integers(low, high))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = rng.integers(0, n, size=(draw(st.integers(0, 400)), 2))
    corner = min(n, 40)
    edges[: len(edges) // 2] = n - 1 - edges[: len(edges) // 2] % corner
    graph = DataGraph(n, edges, name=f"membership-{regime}")
    dtype = graph.indices.dtype
    kind = draw(st.sampled_from(["empty", "present", "absent", "mixed"]))
    size = 0 if kind == "empty" else draw(st.integers(1, 300))
    heads = np.repeat(np.arange(n), np.diff(graph.indptr))
    present = rng.integers(0, len(heads), size=size) if len(heads) else []
    pairs = {
        "present": (heads[present], graph.indices[present]),
        "random": tuple(rng.integers(0, n, size=(2, size))),
    }
    if kind == "present" and len(heads):
        owners, cand = pairs["present"]
    elif kind == "mixed" and len(heads):
        owners = np.concatenate([pairs["present"][0], pairs["random"][0]])
        cand = np.concatenate([pairs["present"][1], pairs["random"][1]])
    else:
        owners, cand = pairs["random"]
        if kind == "absent":
            keep = ~searched_membership(graph, owners, cand)
            owners, cand = owners[keep], cand[keep]
    return graph, np.asarray(owners, dtype=dtype), np.asarray(cand, dtype=dtype)


class TestMembership:
    """:func:`frontier.member_mask` through the per-graph table ==
    a plain binary search of ``adjacency_keys``, in every regime."""

    @pytest.mark.parametrize("regime", sorted(MEMBERSHIP_REGIMES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_equals_binary_search(self, regime, data):
        graph, owners, cand = data.draw(membership_cases(regime))
        table = graph.adjacency_filter
        assert table.exact == (regime == "exact")
        assert graph.adjacency_keys.dtype == (
            np.int64 if regime == "hashed-64" else np.int32
        )
        want = searched_membership(graph, owners, cand)
        for difference in (False, True):
            stats = SetOpStats()
            got = frontier.member_mask(
                graph, owners, cand, stats, difference=difference
            )
            assert got.dtype == bool
            assert got.tolist() == want.tolist()
            assert stats.elements_scanned == len(cand)
            assert (stats.differences, stats.intersections) == (
                (1, 0) if difference else (0, 1)
            )

    @pytest.mark.parametrize("n", [1024, 1025, 46_340, 46_342])
    def test_table_size_is_capped_and_sized_from_the_edges(self, n):
        rng = np.random.default_rng(n)
        graph = DataGraph(n, rng.integers(0, n, size=(5_000, 2)))
        table = graph.adjacency_filter
        assert not table.table.flags.writeable
        if table.exact:
            assert n * n <= DENSE_ADJACENCY_MAX_BYTES
            assert table.table.nbytes == n * n  # the dense matrix, flattened
        else:
            assert table.table.dtype == np.uint16
            assert len(table.table) <= DENSE_ADJACENCY_MAX_BYTES
            slots_per_edge = len(table.table) / len(graph.adjacency_keys)
            assert 4 <= slots_per_edge < 8
            # Every edge's own slot holds its tag or the collided mark:
            # an empty slot or another tag is a sure miss.
            slots, tags = table.hash(graph.adjacency_keys)
            stored = table.table[slots]
            assert ((stored == tags) | (stored == COLLIDED)).all()
            assert table.table.tolist() == reference_table(table, graph).tolist()

    @pytest.mark.parametrize(
        "n, num_edges, tags_exact",
        [(5_000, 12_000, True), (40_000, 600, False), (50_000, 3_000, False)],
        ids=["32-bit-exact-tags", "32-bit-confirmed-tags", "64-bit"],
    )
    def test_collided_slots_and_unconfirmed_tags(self, n, num_edges, tags_exact):
        """Deterministic probes that reach every branch of a hashed
        lookup: edges and non-edges on collided slots, and — where the
        bits below the slot do not fit a tag — non-edges whose tag
        matches the slot's, which the binary search must turn down.
        Where they fit, slot and tag give the key back."""
        rng = np.random.default_rng(n)
        graph = DataGraph(n, rng.integers(0, n, size=(num_edges, 2)))
        table = graph.adjacency_filter
        keys = graph.adjacency_keys
        assert not table.exact and (table.tag_shift == 0) == tags_exact
        assert table.table.tolist() == reference_table(table, graph).tolist()
        unsigned = table.shift.dtype
        width = 8 * unsigned.itemsize
        multiplier = int(_HASH_MULTIPLIERS[keys.dtype])
        if tags_exact:
            slots, tags = table.hash(keys)
            inverse = pow(multiplier, -1, 2**width)
            rebuilt = [
                ((s << int(table.shift) | t) * inverse) % 2**width
                for s, t in zip(slots.tolist(), tags.tolist())
            ]
            assert rebuilt == keys.tolist()
        # Rare probes are sieved out of many random ones by their slot.
        found = []
        for _ in range(4):
            probes = rng.integers(0, n * n, size=1 << 20).astype(keys.dtype)
            slots, tags = table.hash(probes)
            stored = table.table[slots]
            keep = (stored == tags) | (stored == COLLIDED)
            keep[:2_000] = True  # and a plain sample
            found.append(probes[keep])
        probes = np.concatenate([*found, keys[:: max(1, len(keys) // 2_000)]])
        slots, tags = table.hash(probes)
        stored = table.table[slots]
        owners = (probes // n).astype(graph.indices.dtype)
        cand = (probes % n).astype(graph.indices.dtype)
        edge = searched_membership(graph, owners, cand)
        collided = stored == COLLIDED
        matched = stored == tags
        assert (collided & edge).any() and (collided & ~edge).any()
        assert (matched & edge).any()
        assert (matched & ~edge).any() != tags_exact
        assert not (edge & ~matched & ~collided).any()
        got = frontier.member_mask(graph, owners, cand, SetOpStats())
        assert got.tolist() == edge.tolist()

    def test_edgeless_graph_answers_no(self):
        graph = DataGraph(50_000, [])
        owners = np.array([0, 49_999], dtype=graph.indices.dtype)
        got = frontier.member_mask(graph, owners, owners[::-1].copy(), SetOpStats())
        assert got.tolist() == [False, False]


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
    """batch_roots must reach the pool threads' engine copies."""
    assert_matches_oracle(small_graph, TRIANGLE, workers=2, batch_roots=7)


def test_run_facade_batch_roots_validated(small_graph):
    with pytest.raises(ValueError, match="batch_roots"):
        repro.run(small_graph, [TRIANGLE], options=repro.RunOptions(batch_roots=-1))


def test_default_is_batched_and_zero_is_per_root(small_graph):
    """The policy, read off the kernel spans a traced run leaves: the
    same two kernels for every engine."""

    def kernels(**options):
        result = repro.run(
            small_graph, [TRIANGLE], options=repro.RunOptions(trace=True, **options)
        )
        return {s.name for s in result.trace.spans if s.name.startswith("kernel")}

    for engine in sorted(repro.ENGINES):
        assert kernels(engine=engine) == {"kernel.batched"}, engine
        assert kernels(engine=engine, batch_roots=7) == {"kernel.batched"}, engine
        assert kernels(engine=engine, batch_roots=0) == {"kernel"}, engine
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
    def test_slow_shards_match_oracle(self, small_graph):
        slow = FaultPlan({index: FaultSpec("slow", seconds=0.001) for index in (0, 2)})
        for batch in BATCH_SIZES:
            assert_matches_oracle(
                small_graph, [TRIANGLE, FOUR_CYCLE], batch_roots=batch, faults=slow
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
                faults=FaultPlan({2: FaultSpec("hang")}),
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
