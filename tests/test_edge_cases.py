"""Edge cases across the stack: degenerate graphs and unusual patterns."""

from __future__ import annotations

import pytest

from repro.core import atlas
from repro.core.aggregation import ExistenceAggregation, MNIAggregation
from repro.core.pattern import Pattern
from repro.engines.autozero.engine import AutoZeroEngine
from repro.engines.bigjoin.engine import BigJoinEngine
from repro.engines.graphpi.engine import GraphPiEngine
from repro.engines.peregrine.engine import PeregrineEngine
from repro.graph.datagraph import DataGraph
from repro.morph.session import MorphingSession
from repro.testing.oracle import assert_matches_oracle

from .oracle import brute_force_count

ENGINES = [PeregrineEngine, AutoZeroEngine, GraphPiEngine, BigJoinEngine]


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestDegenerateGraphs:
    def test_edgeless_graph(self, engine_cls):
        graph = DataGraph(5, [], name="edgeless")
        assert engine_cls().count(graph, atlas.TRIANGLE) == 0
        assert engine_cls().count(graph, Pattern(2, [(0, 1)])) == 0

    def test_single_edge_graph(self, engine_cls):
        graph = DataGraph(2, [(0, 1)], name="k2")
        assert engine_cls().count(graph, Pattern(2, [(0, 1)])) == 1
        assert engine_cls().count(graph, atlas.TRIANGLE) == 0

    def test_pattern_larger_than_graph(self, engine_cls):
        graph = DataGraph(3, [(0, 1), (1, 2)], name="tiny3")
        assert engine_cls().count(graph, atlas.FIVE_CLIQUE) == 0

    def test_complete_graph(self, engine_cls):
        graph = DataGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert engine_cls().count(graph, atlas.FOUR_CLIQUE) == 5  # C(5,4)
        # Vertex-induced 4-cycles cannot exist inside a clique.
        assert engine_cls().count(graph, atlas.FOUR_CYCLE.vertex_induced()) == 0


class TestUnusualPatterns:
    def test_disconnected_pattern_supported(self, tiny_graph):
        """Two disjoint edges (2K2): supported, just not plan-optimal."""
        two_edges = Pattern(4, [(0, 1), (2, 3)])
        expected = brute_force_count(tiny_graph, two_edges)
        assert PeregrineEngine().count(tiny_graph, two_edges) == expected

    def test_disconnected_vertex_induced(self, tiny_graph):
        two_edges_v = Pattern(4, [(0, 1), (2, 3)]).vertex_induced()
        expected = brute_force_count(tiny_graph, two_edges_v)
        assert PeregrineEngine().count(tiny_graph, two_edges_v) == expected

    def test_single_vertex_pattern(self, tiny_graph):
        assert PeregrineEngine().count(tiny_graph, Pattern(1, [])) == (
            tiny_graph.num_vertices
        )

    def test_isolated_vertex_in_pattern(self, tiny_graph):
        """Triangle plus an isolated vertex (edge-induced)."""
        p = Pattern(4, [(0, 1), (1, 2), (0, 2)])
        expected = brute_force_count(tiny_graph, p)
        assert PeregrineEngine().count(tiny_graph, p) == expected


class TestExistenceThroughMorphing:
    def test_existence_aggregation_morphed(self, small_graph):
        """Existence is non-invertible: legal via the V-union direction."""
        agg = ExistenceAggregation()
        query = atlas.FOUR_CYCLE  # edge-induced
        baseline = MorphingSession(
            PeregrineEngine(), aggregation=agg, enabled=False
        ).run(small_graph, [query])
        morphed = MorphingSession(
            PeregrineEngine(), aggregation=agg, enabled=True, margin=1e9
        ).run(small_graph, [query])
        assert baseline.results == morphed.results
        assert isinstance(morphed.results[query], bool)

    def test_existence_early_termination(self, medium_graph):
        """One match settles existence: far fewer UDF calls than matches."""
        engine = PeregrineEngine()
        exists = engine.aggregate(medium_graph, atlas.TRIANGLE, ExistenceAggregation())
        assert exists is True
        total = PeregrineEngine().count(medium_graph, atlas.TRIANGLE)
        assert engine.stats.udf_calls < total

    def test_absent_pattern_is_false(self, sparse_graph):
        agg = ExistenceAggregation()
        assert (
            PeregrineEngine().aggregate(sparse_graph, atlas.FIVE_CLIQUE, agg)
            is False
        )


class TestMNIEdgeCases:
    def test_no_match_mni_is_zero(self, sparse_graph):
        table = PeregrineEngine().aggregate(
            sparse_graph, atlas.FIVE_CLIQUE, MNIAggregation()
        )
        assert MNIAggregation.support(table) == 0

    def test_mni_on_single_vertex_pattern(self, small_labeled_graph):
        p = Pattern(1, [], labels=[0])
        table = PeregrineEngine().aggregate(small_labeled_graph, p, MNIAggregation())
        assert MNIAggregation.support(table) == len(
            small_labeled_graph.vertices_by_label[0]
        )


class TestSessionEdgeCases:
    def test_duplicate_queries(self, small_graph):
        """The same pattern twice: one measurement, both keys answered."""
        q = atlas.FOUR_CYCLE.vertex_induced()
        result = MorphingSession(PeregrineEngine()).run(small_graph, [q, q])
        assert result.results[q] == brute_force_count(small_graph, q)

    def test_isomorphic_but_renumbered_queries(self, small_graph):
        a = atlas.TAILED_TRIANGLE
        b = atlas.TAILED_TRIANGLE.relabel([3, 2, 1, 0])
        result = MorphingSession(PeregrineEngine(), margin=1e9).run(
            small_graph, [a, b]
        )
        assert result.results[a] == result.results[b]
        assert result.results[a] == brute_force_count(small_graph, a)

    def test_isomorphic_queries_share_one_canonical_step(self, small_graph):
        """Two numberings of one shape share a measured item, so neither
        can be matched as given: the step runs canonically and each query
        gets its own renumbering — from the store and from the stream."""
        a = atlas.TAILED_TRIANGLE
        b = atlas.TAILED_TRIANGLE.relabel([3, 2, 1, 0])
        for enabled in (False, True):
            streamed, stored = assert_matches_oracle(
                small_graph,
                [a, b],
                sink="stream",
                oracle_kwargs={"enabled": enabled},
                enabled=enabled,
            )
            assert len(stored.plan.steps) == 1
            assert {c.mode for c in stored.plan.combine_steps} == {"identity"}
            for query in (a, b):
                for match in stored.results[query]:
                    assert all(
                        small_graph.has_edge(match[u], match[v])
                        for u, v in query.edges
                    )
            assert streamed.results[a] == brute_force_count(small_graph, a)

    def test_filtered_stream_on_graph_smaller_than_pattern(self):
        """No match can exist, so there is nothing to profile or emit."""
        path = DataGraph(3, [(0, 1), (1, 2)], name="p3")
        for enabled in (False, True):
            result = MorphingSession(
                PeregrineEngine(), enabled=enabled
            ).run_streaming(
                path, [atlas.FOUR_CYCLE], lambda p, m: None, lambda m: True
            )
            assert result.results == {atlas.FOUR_CYCLE: 0}

    def test_clique_query_never_morphs(self, small_graph):
        result = MorphingSession(PeregrineEngine(), margin=1e9).run(
            small_graph, [atlas.FOUR_CLIQUE]
        )
        assert not result.selection.morphed[atlas.FOUR_CLIQUE]

    def test_streaming_empty_pattern_list(self, small_graph):
        result = MorphingSession(PeregrineEngine()).run_streaming(
            small_graph, [], lambda p, m: None
        )
        assert result.results == {}
