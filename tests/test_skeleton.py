"""A labeled pattern's structure, derived from its unlabeled skeleton.

Canonical search, the automorphism group, symmetry breaking, matching
orders, superpattern closures, loop-profile and exploration-plan
templates are computed once per unlabeled shape and specialised to a
labeling by one pass over the shape's group (:mod:`repro.core.canonical`).
These tests hold the specialised answers to brute force over every
vertex permutation and to derivations from the labeled pattern itself,
check that labelings share the skeleton's memo entries, and check that
the one-query decline of
:func:`repro.plan.search.select_alternative_patterns` returns exactly
what the full Algorithm 1 search returns.
"""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import atlas
from repro.core.aggregation import CountAggregation, MNIAggregation
from repro.core.canonical import (
    _encoding_prefix,
    canonical_form,
    canonical_permutation,
    pattern_id,
    shape_of,
)
from repro.core.costmodel import (
    CostModel,
    _level_template,
    _matching_order_cached,
    matching_order,
)
from repro.core.equations import item_of
from repro.core.generation import (
    _added_edge_shapes,
    _closure_template,
    direct_superpatterns,
    superpattern_closure,
)
from repro.core.isomorphism import (
    _conditions,
    _shape_conditions,
    automorphisms,
    symmetry_breaking_conditions,
)
from repro.core.pattern import Pattern
from repro.core.sdag import SDag
from repro.engines.plan import ExplorationPlan, PlanLevel, _plan_template
from repro.graph.generators import assign_labels, power_law_cluster
from repro.plan.search import search_plan, select_alternative_patterns

from .strategies import connected_skeletons, patterns, permutations_of


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
#: The templates a labeled query is specialised from (one entry per
#: shape each).
TEMPLATE_MEMOS = (_closure_template, _plan_template, _encoding_prefix)


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

    def test_templates_take_one_entry_per_shape(self):
        """N labelings of one shape: one entry in each template memo for
        the shape, none for a labeling."""
        graph = assign_labels(power_law_cluster(60, 3, 0.4, seed=3), 4, seed=1)
        shape = atlas.NAMED_PATTERNS["TT"].vertex_induced()
        labelings = [
            shape.with_labels([a, b, c, d])
            for a in range(4)
            for b in range(4)
            for c in range(3)
            for d in range(3)
        ]

        def touch(p: Pattern) -> None:
            skel = canonical_form(p.edge_induced())
            superpattern_closure(skel)
            ExplorationPlan.build(p)
            pattern_id(p)
            search_plan([p], CostModel.for_graph(graph))

        for memo in TEMPLATE_MEMOS:
            memo.cache_clear()
        touch(shape.with_labels([9, 9, 8, 8]))
        assert [memo.cache_info().currsize for memo in TEMPLATE_MEMOS] == [1, 1, 1]
        for p in labelings:
            touch(p)
        assert [memo.cache_info().currsize for memo in TEMPLATE_MEMOS] == [1, 1, 1]
        assert len({pattern_id(p) for p in labelings}) > 64

    def test_one_shape_entry_per_numbering(self):
        shape_of.cache_clear()
        star = Pattern.star(4)
        for labels in ([0, 1, 2, 3], [1, 1, 0, 0], [2, 0, 0, 1]):
            automorphisms(star.with_labels(labels))
            canonical_form(star.with_labels(labels))
        assert shape_of.cache_info().currsize == 1


def reference_closure(skel: Pattern) -> tuple[Pattern, ...]:
    """The closure by a walk over each member's one-edge superpatterns
    (:func:`direct_superpatterns`), sorted by edge count, then ``repr``."""
    skel = canonical_form(skel)
    seen = {skel: None}
    frontier = [skel]
    while frontier:
        found = []
        for p in frontier:
            for sup in direct_superpatterns(p):
                if sup not in seen:
                    seen[sup] = None
                    found.append(sup)
        frontier = found
    return tuple(sorted(seen, key=lambda p: (p.num_edges, repr(p))))


def reference_plan(pattern: Pattern, order=None, symmetry_breaking=True):
    """An exploration plan's levels, each derived from the pattern alone."""
    order = list(matching_order(pattern) if order is None else order)
    position = {v: i for i, v in enumerate(order)}
    conditions = symmetry_breaking_conditions(pattern) if symmetry_breaking else ()
    levels = []
    for i, v in enumerate(order):
        backward = tuple(
            sorted(position[w] for w in pattern.neighbors(v) if position[w] < i)
        )
        anti = tuple(
            sorted(position[w] for w in pattern.anti_neighbors(v) if position[w] < i)
        )
        upper, lower = [], []
        for u, w in conditions:
            if v == u and position[w] < i:
                upper.append(position[w])
            elif v == w and position[u] < i:
                lower.append(position[u])
        levels.append(
            PlanLevel(
                pattern_vertex=v,
                backward_neighbors=backward,
                backward_anti=anti,
                upper_bounds=tuple(sorted(upper)),
                lower_bounds=tuple(sorted(lower)),
                non_adjacent=tuple(j for j in range(i) if j not in backward),
                label=pattern.label(v),
            )
        )
    return ExplorationPlan(pattern=pattern, levels=tuple(levels))


def reference_profile(model: CostModel, skel: Pattern, variant: str):
    """``(cost, matches)`` of the nested-loop model, every level and the
    symmetry conditions derived from the labeled pattern itself."""
    m = model.model
    order = matching_order(skel)
    position = {v: i for i, v in enumerate(order)}
    constraints = [0] * skel.n
    for u, v in _conditions(brute_automorphisms(skel), skel.n):
        constraints[max(position[u], position[v])] += 1
    partial, cost, final_candidates = 1.0, 0.0, 1.0
    for i, v in enumerate(order):
        back_edges = sum(1 for w in skel.neighbors(v) if position[w] < i)
        if variant == "V":
            back_anti = i - back_edges
        else:
            back_anti = sum(1 for w in skel.anti_neighbors(v) if position[w] < i)
        if back_edges == 0:
            candidates = m.num_vertices * m.label_fraction(skel.label(v))
        else:
            candidates = m.biased_degree * m.label_fraction(skel.label(v))
            candidates *= m.closure_prob ** (back_edges - 1)
        if i > 0:
            anti_prob = m.closure_prob if back_edges else m.edge_prob
            candidates *= (1.0 - anti_prob) ** back_anti
            candidates *= 0.5 ** constraints[i]
            ops = (
                max(back_edges - 1, 0) * model.profile.intersection_weight
                + back_anti * model.profile.difference_weight
            )
            cost += partial * ops
        if i < len(order) - 1:
            partial *= max(candidates, 1e-12)
            cost += partial
        else:
            final_candidates = max(candidates, 0.0)
    return cost, partial * final_candidates


class TestTemplates:
    """What a labeled query derives from its shape's templates equals
    what it derives from itself, in any numbering, in either variant."""

    @given(
        connected_skeletons(max_n=6, labeled=True),
        st.data(),
        st.sampled_from(["E", "V"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_specialised_equals_derived(self, shape: Pattern, data, variant):
        query = shape.relabel(data.draw(permutations_of(shape.n)))
        if variant == "V":
            query = query.vertex_induced()
        assert ExplorationPlan.build(query) == reference_plan(query)
        assert ExplorationPlan.build(
            query, symmetry_breaking=False
        ) == reference_plan(query, symmetry_breaking=False)
        order = data.draw(permutations_of(query.n))
        assert ExplorationPlan.build(query, order=order) == reference_plan(
            query, order=order
        )

        skel = item_of(query)[0]
        closure = superpattern_closure(skel)
        assert closure == reference_closure(skel)
        assert [repr(p) for p in closure] == [repr(p) for p in reference_closure(skel)]

        model = CostModel.for_graph(GRAPH)
        for sup in closure[:4]:
            for v in ("E", "V"):
                assert model._loop_profile(sup, v) == reference_profile(model, sup, v)

        if query.n <= 5:
            fast = select_alternative_patterns([query], model)
            full = select_alternative_patterns(
                [query], model, sdag=SDag.build([query])
            )
            assert fast == full


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


class TestDeclinePricesWhatDecides:
    """An early decline stops pricing once the answer is known, and its
    ``item_costs`` are completed on first read (equality included)."""

    def test_rest_is_priced_on_first_read(self):
        query = atlas.NAMED_PATTERNS["TT"].vertex_induced()
        model = CostModel.for_graph(GRAPH)
        cost, priced = model.pattern_cost, []

        def counted(*item):
            priced.append(item)
            return cost(*item)

        model.pattern_cost = counted
        plan = search_plan([query], model)
        selection = plan.selection
        assert selection.declined_early and selection.unpriced is not None
        decided = len(priced)
        closure = superpattern_closure(query)
        assert decided < 2 * len(closure)
        full = select_alternative_patterns(
            [query], CostModel.for_graph(GRAPH), sdag=SDag.build([query])
        )
        assert selection.item_costs == full.item_costs
        assert selection.unpriced is None
        assert len(priced) > decided

