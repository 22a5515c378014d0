"""Tests for the cross-query measurement cache."""

from __future__ import annotations

from repro.core import atlas
from repro.core.aggregation import CountAggregation, MatchListAggregation, MNIAggregation
from repro.core.equations import item_of
from repro.engines.peregrine.engine import PeregrineEngine
from repro.graph.datagraph import DataGraph
from repro.morph.cache import MeasurementCache
from repro.morph.session import MorphingSession

from .oracle import brute_force_count


class TestCacheBasics:
    def test_put_get_roundtrip(self, small_graph):
        cache = MeasurementCache()
        agg = CountAggregation()
        item = item_of(atlas.FOUR_CYCLE)
        assert cache.get(small_graph, agg, item) is None
        cache.put(small_graph, agg, item, 42)
        assert cache.get(small_graph, agg, item) == 42
        assert cache.hits == 1 and cache.misses == 1

    def test_zero_counts_cacheable(self, small_graph):
        cache = MeasurementCache()
        agg = CountAggregation()
        item = item_of(atlas.FIVE_CLIQUE)
        cache.put(small_graph, agg, item, 0)
        assert cache.get(small_graph, agg, item) == 0

    def test_keys_separate_graphs(self, small_graph, tiny_graph):
        cache = MeasurementCache()
        agg = CountAggregation()
        item = item_of(atlas.TRIANGLE)
        cache.put(small_graph, agg, item, 7)
        assert cache.get(tiny_graph, agg, item) is None

    def test_keys_are_content_not_identity(self):
        """Two structurally identical graph objects share entries; one
        edge of difference never hits (``id(graph)`` is reused once a
        graph is freed, so an identity key answers for the wrong graph)."""
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        first, twin = DataGraph(4, edges), DataGraph(4, list(reversed(edges)))
        other = DataGraph(4, edges + [(0, 3)])
        assert first is not twin
        cache = MeasurementCache()
        agg = CountAggregation()
        item = item_of(atlas.TRIANGLE)
        cache.put(first, agg, item, 1)
        assert cache.get(twin, agg, item) == 1
        assert cache.get(other, agg, item) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_keys_separate_aggregations(self, small_graph):
        cache = MeasurementCache()
        item = item_of(atlas.TRIANGLE)
        cache.put(small_graph, CountAggregation(), item, 7)
        assert cache.get(small_graph, MNIAggregation(), item) is None

    def test_match_lists_not_cached(self, small_graph):
        cache = MeasurementCache()
        agg = MatchListAggregation()
        item = item_of(atlas.TRIANGLE)
        cache.put(small_graph, agg, item, [(1, 2, 3)])
        assert cache.get(small_graph, agg, item) is None
        assert len(cache) == 0

    def test_clear(self, small_graph):
        cache = MeasurementCache()
        cache.put(small_graph, CountAggregation(), item_of(atlas.TRIANGLE), 1)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0


class TestCachedSessions:
    def test_second_run_hits_cache(self, small_graph):
        cache = MeasurementCache()
        queries = list(atlas.motif_patterns(4))
        session = MorphingSession(PeregrineEngine(), cache=cache, margin=1.0)
        first = session.run(small_graph, queries)
        engine_after_first = session.engine.stats.patterns_matched
        second = session.run(small_graph, queries)
        assert first.results == second.results
        assert cache.hits >= len(second.measured)
        # The second run matched nothing: every measurement came cached.
        assert session.engine.stats.patterns_matched == 0 or (
            session.engine.stats.patterns_matched < engine_after_first
        )

    def test_cached_results_still_exact(self, small_graph):
        cache = MeasurementCache()
        session = MorphingSession(PeregrineEngine(), cache=cache, margin=1e9)
        for _ in range(2):
            result = session.run(small_graph, [atlas.FOUR_CYCLE.vertex_induced()])
            assert result.results[
                atlas.FOUR_CYCLE.vertex_induced()
            ] == brute_force_count(small_graph, atlas.FOUR_CYCLE.vertex_induced())

    def test_overlapping_query_sets_share(self, small_graph):
        cache = MeasurementCache()
        session = MorphingSession(PeregrineEngine(), cache=cache, margin=1e9)
        session.run(small_graph, [atlas.FOUR_PATH.vertex_induced()])
        hits_before = cache.hits
        # 4-cycle's closure ⊆ 4-path's closure: everything should hit.
        session.run(small_graph, [atlas.FOUR_CYCLE.vertex_induced()])
        assert cache.hits > hits_before

    def test_mni_cached_across_fsm_style_runs(self, small_labeled_graph):
        from repro.core.pattern import Pattern

        cache = MeasurementCache()
        agg = MNIAggregation()
        session = MorphingSession(
            PeregrineEngine(), aggregation=agg, cache=cache, margin=1e9
        )
        q = Pattern(3, [(0, 1), (1, 2)], labels=[0, 0, 0])
        a = session.run(small_labeled_graph, [q])
        b = session.run(small_labeled_graph, [q])
        assert a.results == b.results
        assert cache.hits > 0
