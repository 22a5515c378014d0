"""Cross-cutting property tests: randomized invariants over the stack.

These complement the per-module tests with whole-pipeline properties on
random graphs, random patterns and random cost models.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import select_alternative_patterns
from repro.core import atlas
from repro.core.aggregation import CountAggregation, MNIAggregation
from repro.core.costmodel import CostModel, EngineCostProfile, GraphModel
from repro.core.equations import item_of, solve_query
from repro.core.pattern import Pattern
from repro.engines.autozero.engine import AutoZeroEngine
from repro.engines.peregrine.engine import PeregrineEngine

from .oracle import brute_force_count, brute_force_mni
from .strategies import connected_skeletons, data_graphs


class TestRandomCostModels:
    """Algorithm 1 must produce derivable selections for ANY cost table."""

    class RandomCostModel(CostModel):
        def __init__(self, rng_values):
            super().__init__(
                GraphModel(
                    num_vertices=50, edge_prob=0.1, avg_degree=5,
                    biased_degree=8, closure_prob=0.2, high_degree_threshold=9,
                )
            )
            self._values = rng_values
            self._cache: dict = {}

        def pattern_cost(self, skel: Pattern, variant: str) -> float:
            from repro.core.canonical import pattern_id

            key = (pattern_id(skel), variant if not skel.is_clique else "E")
            if key not in self._cache:
                self._cache[key] = self._values[len(self._cache) % len(self._values)]
            return self._cache[key]

    @given(
        st.lists(st.floats(0.1, 100.0), min_size=5, max_size=30),
        st.floats(0.2, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_counting_selection_always_derivable(self, costs, margin):
        queries = list(atlas.motif_patterns(4))
        model = self.RandomCostModel(costs)
        result = select_alternative_patterns(
            queries, model, CountAggregation(), margin=margin
        )
        for q in queries:
            solve_query(item_of(q), result.measured)  # must never raise

    @given(st.lists(st.floats(0.1, 100.0), min_size=5, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_mni_selection_always_legal(self, costs):
        from repro.core.generation import skeleton, superpattern_closure
        from repro.core.equations import normalize_item
        from repro.core.sdag import VERTEX_INDUCED

        queries = [atlas.FOUR_STAR, atlas.FOUR_PATH, atlas.TAILED_TRIANGLE]
        model = self.RandomCostModel(costs)
        result = select_alternative_patterns(
            queries, model, MNIAggregation(), margin=1.0
        )
        for q in queries:
            if result.morphed[q]:
                for sup in superpattern_closure(skeleton(q)):
                    assert normalize_item(sup, VERTEX_INDUCED) in result.measured
        query_items = {item_of(q) for q in queries}
        for item in result.measured:
            skel, variant = item
            # E-variant items are legal only as directly-measured queries
            # (or cliques, which are both variants at once).
            assert (
                variant == VERTEX_INDUCED
                or skel.is_clique
                or item in query_items
            )


class TestRandomizedEndToEnd:
    @given(data_graphs(min_n=6, max_n=12), st.integers(0, 1_000_000))
    @settings(max_examples=15, deadline=None)
    def test_forced_morph_still_exact(self, graph, seed):
        """Even a forced (blind) morph must return exact counts."""
        from repro.morph.session import MorphingSession

        queries = list(atlas.motif_patterns(3))
        session = MorphingSession(PeregrineEngine(), enabled=True, margin=1e9)
        result = session.run(graph, queries)
        for q in queries:
            assert result.results[q] == brute_force_count(graph, q)

    @given(data_graphs(min_n=6, max_n=11, labeled=True), connected_skeletons(max_n=3, labeled=True))
    @settings(max_examples=15, deadline=None)
    def test_labeled_mni_morph_exact(self, graph, skel):
        from repro.morph.session import MorphingSession

        session = MorphingSession(
            PeregrineEngine(), aggregation=MNIAggregation(), enabled=True, margin=1e9
        )
        result = session.run(graph, [skel])
        assert result.results[skel] == brute_force_mni(graph, skel)

    @given(data_graphs(min_n=6, max_n=12))
    @settings(max_examples=15, deadline=None)
    def test_autozero_merged_morphed_counts(self, graph):
        from repro.morph.session import MorphingSession

        queries = list(atlas.motif_patterns(4))
        result = MorphingSession(AutoZeroEngine(), enabled=True).run(graph, queries)
        for q in queries:
            assert result.results[q] == brute_force_count(graph, q)


class TestStreamingProperties:
    @given(data_graphs(min_n=6, max_n=11), connected_skeletons(max_n=4))
    @settings(max_examples=12, deadline=None)
    def test_streaming_morph_covers_exact_occurrences(self, graph, skel):
        from repro.morph.session import MorphingSession

        query = skel.edge_induced()
        seen: set = set()

        def process(pattern, match):
            seen.add(
                frozenset(
                    tuple(sorted((match[u], match[v]))) for u, v in pattern.edges
                )
            )

        session = MorphingSession(PeregrineEngine(), enabled=True, margin=1e9)
        result = session.run_streaming(graph, [query], process)
        assert result.results[query] == brute_force_count(graph, query)
        assert len(seen) == brute_force_count(graph, query)


class TestCanonicalStress:
    @given(connected_skeletons(min_n=6, max_n=7))
    @settings(max_examples=20, deadline=None)
    def test_larger_patterns_canonicalize(self, skel):
        """6-7 vertex patterns (the §7.4 sizes) canonicalize consistently."""
        import random

        from repro.core.canonical import pattern_id

        perm = list(range(skel.n))
        random.Random(42).shuffle(perm)
        assert pattern_id(skel) == pattern_id(skel.relabel(perm))

    @given(connected_skeletons(max_n=5), connected_skeletons(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_id_collision_free_on_distinct_structures(self, a, b):
        from repro.core.canonical import are_isomorphic, pattern_id

        if are_isomorphic(a, b):
            assert pattern_id(a) == pattern_id(b)
        else:
            assert pattern_id(a) != pattern_id(b)
