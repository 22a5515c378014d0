"""Engine correctness against the brute-force oracle, plus instrumentation.

All four substrates must count/enumerate identically — and identically to
an oracle that shares no code with them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core import atlas
from repro.core.aggregation import MNIAggregation
from repro.core.pattern import Pattern
from repro.engines.autozero.engine import AutoZeroEngine
from repro.engines.bigjoin.engine import BigJoinEngine
from repro.engines.graphpi.engine import GraphPiEngine
from repro.engines.peregrine.engine import PeregrineEngine

from .oracle import brute_force_count, brute_force_match_tuples, brute_force_mni
from .strategies import connected_skeletons, data_graphs

ENGINES = [PeregrineEngine, AutoZeroEngine, GraphPiEngine, BigJoinEngine]


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestCountsAgainstOracle:
    def test_triangles(self, engine_cls, tiny_graph):
        assert engine_cls().count(tiny_graph, atlas.TRIANGLE) == brute_force_count(
            tiny_graph, atlas.TRIANGLE
        )

    def test_all_4motifs_tiny(self, engine_cls, tiny_graph):
        engine = engine_cls()
        for p in atlas.motif_patterns(4):
            assert engine.count(tiny_graph, p) == brute_force_count(tiny_graph, p), p

    def test_edge_induced_4patterns_small(self, engine_cls, small_graph):
        engine = engine_cls()
        for p in atlas.all_connected_patterns(4):
            assert engine.count(small_graph, p) == brute_force_count(small_graph, p)

    def test_five_vertex_pattern(self, engine_cls, tiny_graph):
        p = atlas.P1
        assert engine_cls().count(tiny_graph, p) == brute_force_count(tiny_graph, p)

    def test_labeled_pattern(self, engine_cls, small_labeled_graph):
        p = Pattern(3, [(0, 1), (1, 2)], labels=[0, 1, 0])
        assert engine_cls().count(small_labeled_graph, p) == brute_force_count(
            small_labeled_graph, p
        )

    def test_labeled_vertex_induced(self, engine_cls, small_labeled_graph):
        p = Pattern(3, [(0, 1), (1, 2)], labels=[0, 0, 0]).vertex_induced()
        assert engine_cls().count(small_labeled_graph, p) == brute_force_count(
            small_labeled_graph, p
        )

    def test_single_edge(self, engine_cls, small_graph):
        assert engine_cls().count(small_graph, Pattern(2, [(0, 1)])) == (
            small_graph.num_edges
        )


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestExplore:
    def test_explore_matches_oracle_set(self, engine_cls, tiny_graph):
        """Streams must cover exactly the oracle's occurrences (matches may
        differ by an automorphic re-assignment, so compare edge images)."""
        p = atlas.TAILED_TRIANGLE
        seen = set()

        def process(pattern, match):
            image = frozenset(
                tuple(sorted((match[u], match[v]))) for u, v in pattern.edges
            )
            seen.add(image)

        emitted = engine_cls().explore(tiny_graph, p, process)
        oracle = {
            frozenset(tuple(sorted((m[u], m[v]))) for u, v in p.edges)
            for m in brute_force_match_tuples(tiny_graph, p)
        }
        assert seen == oracle
        assert emitted == len(oracle)  # no duplicate occurrences emitted

    def test_explore_respects_anti_edges(self, engine_cls, tiny_graph):
        p = atlas.FOUR_CYCLE.vertex_induced()
        bad = []

        def process(pattern, match):
            for u, v in pattern.anti_edges:
                if tiny_graph.has_edge(match[u], match[v]):
                    bad.append(match)

        engine_cls().explore(tiny_graph, p, process)
        assert not bad

    def test_matches_are_injective(self, engine_cls, tiny_graph):
        p = atlas.FOUR_STAR.vertex_induced()

        def process(pattern, match):
            assert len(set(match)) == pattern.n

        engine_cls().explore(tiny_graph, p, process)

    def test_udf_counters(self, engine_cls, tiny_graph):
        engine = engine_cls()
        emitted = engine.explore(tiny_graph, atlas.TRIANGLE, lambda p, m: None)
        assert engine.stats.udf_calls == emitted
        assert engine.stats.udf_seconds >= 0.0


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestAggregation:
    def test_mni_matches_oracle(self, engine_cls, small_labeled_graph):
        p = Pattern(3, [(0, 1), (1, 2)], labels=[0, 1, 0])
        table = engine_cls().aggregate(small_labeled_graph, p, MNIAggregation())
        oracle = brute_force_mni(small_labeled_graph, p)
        assert table == oracle or _mni_equivalent(table, oracle, p)

    def test_count_aggregation_uses_fast_path(self, engine_cls, tiny_graph):
        from repro.core.aggregation import CountAggregation

        engine = engine_cls()
        count = engine.aggregate(tiny_graph, atlas.TRIANGLE, CountAggregation())
        assert count == brute_force_count(tiny_graph, atlas.TRIANGLE)
        assert engine.stats.udf_calls == 0  # counting never invokes a UDF


def _mni_equivalent(table, oracle, pattern) -> bool:
    """MNI columns for automorphic vertices may be permuted consistently."""
    from repro.core.isomorphism import automorphisms

    return any(
        tuple(table[a[v]] for v in range(pattern.n)) == oracle
        for a in automorphisms(pattern)
    )


class TestEnginesAgree:
    @given(data_graphs(min_n=6, max_n=12), connected_skeletons(max_n=4))
    @settings(max_examples=25, deadline=None)
    def test_all_engines_same_counts(self, graph, skel):
        expected = None
        for engine_cls in ENGINES:
            for pattern in (skel, skel.vertex_induced()):
                count = engine_cls().count(graph, pattern)
                oracle = brute_force_count(graph, pattern)
                assert count == oracle, (engine_cls.__name__, pattern)


class TestInstrumentation:
    def test_peregrine_counts_setops(self, small_graph):
        engine = PeregrineEngine()
        engine.count(small_graph, atlas.FOUR_CYCLE.vertex_induced())
        assert engine.stats.setops.intersections > 0
        assert engine.stats.setops.differences > 0  # anti-edges -> diffs

    def test_edge_induced_needs_no_differences(self, small_graph):
        engine = PeregrineEngine()
        engine.count(small_graph, atlas.FOUR_CYCLE)
        assert engine.stats.setops.differences == 0

    def test_filter_engines_branch_on_anti_edges(self, small_graph):
        for engine_cls in (GraphPiEngine, BigJoinEngine):
            engine = engine_cls()
            engine.count(small_graph, atlas.FOUR_CYCLE.vertex_induced())
            assert engine.stats.branches > 0
            assert engine.stats.filter_calls > 0

    def test_native_engines_never_branch(self, small_graph):
        for engine_cls in (PeregrineEngine, AutoZeroEngine):
            engine = engine_cls()
            engine.count(small_graph, atlas.FOUR_CYCLE.vertex_induced())
            assert engine.stats.branches == 0

    def test_reset_stats(self, small_graph):
        engine = PeregrineEngine()
        engine.count(small_graph, atlas.TRIANGLE)
        engine.reset_stats()
        assert engine.stats.setops.total_ops == 0
        assert engine.stats.matches == 0

    def test_stats_merge(self, small_graph):
        a = PeregrineEngine()
        a.count(small_graph, atlas.TRIANGLE)
        b = PeregrineEngine()
        b.count(small_graph, atlas.FOUR_CYCLE)
        total = a.stats.matches + b.stats.matches
        a.stats.merge(b.stats)
        assert a.stats.matches == total


class TestGraphPiOrderSelection:
    def test_orders_are_cached(self, small_graph):
        engine = GraphPiEngine()
        p = atlas.P1
        first = engine._select_order(p, small_graph)
        second = engine._select_order(p, small_graph)
        assert first is second or first == second

    def test_selected_order_is_connected_prefix(self, small_graph):
        engine = GraphPiEngine()
        order = engine._select_order(atlas.P4, small_graph)
        placed = set()
        for i, v in enumerate(order):
            if i:
                assert atlas.P4.neighbors(v) & placed
            placed.add(v)


class TestAutoZeroMerging:
    def test_merged_counts_match_individual(self, small_graph):
        engine = AutoZeroEngine()
        patterns = list(atlas.motif_patterns(4))
        merged = engine.count_set(small_graph, patterns)
        reference = PeregrineEngine()
        for p in patterns:
            assert merged[p] == reference.count(small_graph, p)

    def test_sharing_happens_for_motif_sets(self, small_graph):
        engine = AutoZeroEngine()
        engine.count_set(small_graph, list(atlas.all_connected_patterns(4)))
        assert engine.last_sharing_ratio < 1.0

    def test_merging_reduces_setops(self, small_graph):
        patterns = list(atlas.all_connected_patterns(4))
        merged = AutoZeroEngine()
        merged.count_set(small_graph, patterns)
        sequential = PeregrineEngine()
        sequential.count_set(small_graph, patterns)
        assert (
            merged.stats.setops.total_ops <= sequential.stats.setops.total_ops
        )

    def test_empty_set(self, small_graph):
        assert AutoZeroEngine().count_set(small_graph, []) == {}


class TestGraphPiCaches:
    """Order and split caches follow content, never object identity."""

    def test_keyed_by_graph_fingerprint(self, small_graph):
        from repro.graph.datagraph import DataGraph

        edges = small_graph.edge_array().tolist()
        twin = DataGraph(small_graph.num_vertices, edges, name="twin")
        edited = DataGraph(small_graph.num_vertices, edges[1:], name="edited")
        engine = GraphPiEngine()
        for graph in (small_graph, twin):
            engine.count(graph, atlas.TAILED_TRIANGLE)
        assert (len(engine._split_cache), len(engine._order_cache)) == (1, 1)
        engine.count(edited, atlas.TAILED_TRIANGLE)
        assert (len(engine._split_cache), len(engine._order_cache)) == (2, 2)

    def test_a_renumbered_pattern_gets_its_own_order(self, small_graph):
        from repro.engines.graphpi.engine import _connected_prefix

        path = Pattern(4, [(0, 1), (1, 2), (2, 3)])
        renumbered = Pattern(4, [(0, 2), (2, 3), (3, 1)])
        engine = GraphPiEngine()
        engine.make_plan(path, small_graph)
        plan = engine.make_plan(renumbered, small_graph)
        order = tuple(level.pattern_vertex for level in plan.levels)
        assert _connected_prefix(renumbered, order)
