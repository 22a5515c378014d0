"""A labeled pattern's structure, derived from its unlabeled skeleton.

Canonical search, the automorphism group, symmetry breaking, matching
orders, superpatterns and loop-profile templates are computed once per
unlabeled shape and specialised to a labeling by one pass over the
shape's group (:mod:`repro.core.canonical`). These tests hold the
specialised answers to brute force over every vertex permutation, check
that labelings share the skeleton's memo entries, and check that the
one-query decline of :func:`repro.plan.search.select_alternative_patterns`
returns exactly what the full Algorithm 1 search returns.
"""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import atlas
from repro.core.aggregation import CountAggregation, MNIAggregation
from repro.core.canonical import (
    canonical_form,
    canonical_permutation,
    pattern_id,
    shape_of,
)
from repro.core.costmodel import CostModel, _level_template, _matching_order_cached
from repro.core.generation import _added_edge_shapes, direct_superpatterns
from repro.core.isomorphism import (
    _conditions,
    _shape_conditions,
    automorphisms,
    symmetry_breaking_conditions,
)
from repro.core.pattern import Pattern
from repro.core.sdag import SDag
from repro.graph.generators import assign_labels, power_law_cluster
from repro.plan.search import search_plan, select_alternative_patterns

from .strategies import patterns, permutations_of


def _keeps_structure(p: Pattern, q: Pattern, f) -> bool:
    """``f`` maps ``p`` onto ``q``: edges, anti-edges and labels."""
    return (
        {tuple(sorted((f[u], f[v]))) for u, v in p.edges} == q.edges
        and {tuple(sorted((f[u], f[v]))) for u, v in p.anti_edges} == q.anti_edges
        and all(p.label(v) == q.label(f[v]) for v in range(p.n))
    )


def brute_isomorphic(p: Pattern, q: Pattern) -> bool:
    if (p.n, p.num_edges, len(p.anti_edges)) != (q.n, q.num_edges, len(q.anti_edges)):
        return False
    return any(_keeps_structure(p, q, f) for f in permutations(range(p.n)))


def brute_automorphisms(p: Pattern) -> tuple[tuple[int, ...], ...]:
    """Edge- and label-preserving bijections (anti-edges ignored)."""
    bare = p.edge_induced()
    return tuple(
        f for f in permutations(range(p.n)) if _keeps_structure(bare, bare, f)
    )


class TestSkeletonDerived:
    """Specialised structure == brute force on random labeled patterns."""

    @given(patterns(max_n=6, labeled=True))
    @settings(max_examples=150, deadline=None)
    def test_automorphisms(self, p: Pattern):
        assert automorphisms(p) == brute_automorphisms(p)

    @given(patterns(max_n=6, labeled=True))
    @settings(max_examples=150, deadline=None)
    def test_symmetry_conditions(self, p: Pattern):
        group = brute_automorphisms(p)
        conditions = symmetry_breaking_conditions(p)
        assert conditions == _conditions(group, p.n)
        # One representative per orbit: of the orderings ``rank∘g`` of
        # every ordering ``rank``, exactly one meets the conditions.
        rankings = list(permutations(range(p.n)))[:120]
        for rank in rankings:
            meets = sum(
                all(rank[g[u]] < rank[g[v]] for u, v in conditions) for g in group
            )
            assert meets == 1

    @given(patterns(max_n=6, labeled=True), st.data())
    @settings(max_examples=150, deadline=None)
    def test_canonical_form_is_a_complete_invariant(self, p: Pattern, data):
        canon = canonical_form(p)
        assert p.relabel(canonical_permutation(p)) == canon
        assert canonical_form(canon) == canon
        moved = p.relabel(data.draw(permutations_of(p.n)))
        assert canonical_form(moved) == canon
        assert pattern_id(moved) == pattern_id(p)
        other = data.draw(patterns(min_n=p.n, max_n=p.n, labeled=True))
        same = pattern_id(other) == pattern_id(p)
        assert same == brute_isomorphic(p, other)
        assert same == (canonical_form(other) == canon)

    def test_unlabeled_forms_are_the_shape_forms(self):
        for p in atlas.all_connected_patterns(5):
            assert canonical_form(p) == shape_of(p).form
            assert canonical_permutation(p) == shape_of(p).perm

    def test_labeled_superpatterns_carry_the_labels(self):
        tailed = canonical_form(atlas.NAMED_PATTERNS["TT"].with_labels([0, 1, 1, 2]))
        supers = direct_superpatterns(tailed)
        assert len(supers) == len(set(map(pattern_id, supers))) == 2
        for sup in supers:
            assert sup.num_edges == tailed.num_edges + 1
            assert sorted(sup.labels) == sorted(tailed.labels)
            assert any(
                _keeps_structure(
                    tailed, Pattern(sup.n, sup.edges - {e}, labels=sup.labels), f
                )
                for e in sup.edges
                for f in permutations(range(sup.n))
            )


SKELETON_MEMOS = (
    shape_of,
    _shape_conditions,
    _added_edge_shapes,
    _matching_order_cached,
    _level_template,
)


class TestMemoHygiene:
    """Labelings of one shape share its skeleton memo entries."""

    def test_labelings_add_no_memo_entries(self):
        graph = assign_labels(power_law_cluster(60, 3, 0.4, seed=3), 4, seed=1)
        shape = Pattern.path(4)
        labelings = [
            shape.with_labels([a, b, c, d])
            for a in range(4)
            for b in range(4)
            for c in range(2)
            for d in range(2)
        ]

        def touch(p: Pattern) -> None:
            canonical_form(p)
            automorphisms(p)
            symmetry_breaking_conditions(p)
            direct_superpatterns(canonical_form(p))
            CostModel.for_graph(graph).pattern_cost(canonical_form(p), "V")

        for memo in SKELETON_MEMOS:
            memo.cache_clear()
        touch(shape.with_labels([9, 9, 9, 9]))
        sizes = [memo.cache_info().currsize for memo in SKELETON_MEMOS]
        for p in labelings:
            touch(p)
        assert [memo.cache_info().currsize for memo in SKELETON_MEMOS] == sizes
        assert len({pattern_id(p) for p in labelings}) > 32

    def test_one_shape_entry_per_numbering(self):
        shape_of.cache_clear()
        star = Pattern.star(4)
        for labels in ([0, 1, 2, 3], [1, 1, 0, 0], [2, 0, 0, 1]):
            automorphisms(star.with_labels(labels))
            canonical_form(star.with_labels(labels))
        assert shape_of.cache_info().currsize == 1


GRAPH = assign_labels(power_law_cluster(300, 4, 0.4, seed=5), 3, skew=0.8, seed=10)
SHAPES = [p for k in (3, 4, 5) for p in atlas.all_connected_patterns(k)]


@st.composite
def one_queries(draw):
    """A connected 3-5-vertex pattern, either variant, up to 3 labels."""
    shape = draw(st.sampled_from(SHAPES))
    if draw(st.booleans()):
        shape = shape.vertex_induced()
    num_labels = draw(st.integers(0, 3))
    if num_labels:
        labels = draw(
            st.lists(st.integers(0, num_labels - 1), min_size=shape.n, max_size=shape.n)
        )
        shape = shape.with_labels(labels)
    return shape.relabel(draw(permutations_of(shape.n)))


class TestOneQueryDecline:
    """The decline without the S-DAG == the full search, whenever it fires."""

    @given(
        one_queries(),
        st.sampled_from([0.3, 0.6, 1.0, 100.0]),
        st.sampled_from([CountAggregation(), MNIAggregation()]),
    )
    @settings(max_examples=200, deadline=None)
    def test_decline_equals_full_search(self, query, margin, aggregation):
        model = CostModel.for_graph(GRAPH, aggregation=aggregation)
        fast = select_alternative_patterns([query], model, aggregation, margin=margin)
        full = select_alternative_patterns(
            [query], model, aggregation, sdag=SDag.build([query]), margin=margin
        )
        assert fast == full
        assert not full.declined_early
        if fast.declined_early:
            assert not any(fast.morphed.values())
        for strategy in ("auto", "morph", "decompose"):
            plans = [
                search_plan(
                    [query],
                    model,
                    aggregation,
                    strategy=strategy,
                    margin=margin,
                    sdag=sdag,
                )
                for sdag in (None, SDag.build([query]))
            ]
            assert plans[0] == plans[1]
            assert plans[0].describe() == plans[1].describe()

    @pytest.mark.parametrize(
        "name, margin, declined",
        [("triangle", 0.6, True), ("TT", 0.6, True), ("4P", 0.6, False)],
    )
    def test_which_route(self, name, margin, declined):
        query = atlas.NAMED_PATTERNS[name].vertex_induced()
        model = CostModel.for_graph(GRAPH)
        result = select_alternative_patterns([query], model, margin=margin)
        assert result.declined_early is declined
        assert any(result.morphed.values()) is not declined

    def test_sets_and_given_sdags_take_the_full_search(self):
        model = CostModel.for_graph(GRAPH)
        tt = atlas.NAMED_PATTERNS["TT"].vertex_induced()
        c4 = Pattern.cycle(4).vertex_induced()
        assert not select_alternative_patterns([tt, c4], model).declined_early
        assert not select_alternative_patterns(
            [tt], model, sdag=SDag.build([tt])
        ).declined_early
