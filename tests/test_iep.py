"""Tests for GraphPi-style IEP counting."""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import atlas
from repro.core.pattern import Pattern
from repro.engines import frontier
from repro.engines.base import EngineStats
from repro.engines.graphpi.engine import GraphPiEngine
from repro.engines.graphpi.iep import iep_suffix_length
from repro.engines.peregrine.engine import PeregrineEngine
from repro.engines.plan import ExplorationPlan
from repro.graph.datagraph import DataGraph
from repro.graph.generators import power_law_cluster
from repro.plan.iep import block_distinct_counts, ordered_distinct_count
from repro.plan.rules import DecomposedCount, find_decompositions

from .oracle import brute_force_count, brute_force_match_tuples
from .strategies import connected_skeletons, data_graphs


class TestOrderedDistinctCount:
    @given(
        st.lists(
            st.sets(st.integers(0, 12), min_size=0, max_size=8),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_exhaustive(self, raw_sets):
        """IEP equals brute-force enumeration of distinct assignments."""
        from itertools import product

        sets = [np.array(sorted(s), dtype=np.int64) for s in raw_sets]
        exhaustive = sum(
            1
            for combo in product(*[s.tolist() for s in sets])
            if len(set(combo)) == len(combo)
        )
        assert ordered_distinct_count(sets, EngineStats()) == exhaustive

    def test_pairwise_formula(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array([2, 3, 4], dtype=np.int64)
        # |A||B| - |A ∩ B| = 9 - 2 = 7
        assert ordered_distinct_count([a, b], EngineStats()) == 7

    def test_identical_sets(self):
        c = np.array([1, 2, 3, 4], dtype=np.int64)
        # 4 * 3 * 2 ordered triples of distinct elements.
        assert ordered_distinct_count([c, c, c], EngineStats()) == 24


class TestSuffixDetection:
    def test_star_suffix_is_leaves(self):
        plan = ExplorationPlan.build(atlas.FOUR_STAR)
        assert iep_suffix_length(plan) == 3

    def test_five_star(self):
        plan = ExplorationPlan.build(atlas.FIVE_STAR)
        assert iep_suffix_length(plan) == 4

    def test_clique_has_no_suffix(self):
        plan = ExplorationPlan.build(atlas.FOUR_CLIQUE)
        assert iep_suffix_length(plan) == 0

    def test_tailed_triangle_default_order(self):
        # Default core-first order ends ...vertex1, vertex3 (non-adjacent).
        plan = ExplorationPlan.build(atlas.TAILED_TRIANGLE)
        assert iep_suffix_length(plan) in (0, 2)  # order-dependent


class TestIEPCounting:
    @pytest.mark.parametrize(
        "pattern",
        [atlas.FOUR_STAR, atlas.FIVE_STAR, Pattern.star(6)],
    )
    def test_star_counts_match_oracle(self, pattern, small_graph):
        engine = GraphPiEngine()  # a bare engine: the per-root kernel

        def iep_count(graph):
            assert iep_suffix_length(engine.make_plan(pattern, graph)) >= 2
            return engine.count(graph, pattern)

        # Closed form, independent of any matcher: a star is a centre
        # plus an unordered choice of its leaves among the neighbours.
        assert iep_count(small_graph) == sum(
            math.comb(int(d), pattern.n - 1) for d in small_graph.degrees
        )
        # Brute force tests |V|!/(|V|-n)! assignments: 127.5M for the
        # 6-star on the 25-vertex graph, so that leg uses 13 vertices.
        graph = small_graph
        if pattern.n > 5:
            graph = power_law_cluster(13, 3, 0.5, seed=5)
        assert iep_count(graph) == brute_force_count(graph, pattern)

    def test_engine_toggles(self, small_graph):
        on = GraphPiEngine()
        off = GraphPiEngine()
        off.use_iep = False
        for p in atlas.all_connected_patterns(4):
            assert on.count(small_graph, p) == off.count(small_graph, p)

    def test_iep_reduces_work_for_stars(self, medium_graph):
        on = GraphPiEngine()
        off = GraphPiEngine()
        off.use_iep = False
        assert on.count(medium_graph, atlas.FOUR_STAR) == off.count(
            medium_graph, atlas.FOUR_STAR
        )
        # The saving is loop iterations (leaf loops become arithmetic);
        # set-op volume may rise slightly from the intersection terms.
        assert on.stats.total_seconds < off.stats.total_seconds

    @given(data_graphs(min_n=6, max_n=12), connected_skeletons(max_n=4))
    @settings(max_examples=20, deadline=None)
    def test_random_patterns_unaffected(self, graph, skel):
        """IEP-on always equals the oracle, whether or not it applies."""
        assert GraphPiEngine().count(graph, skel) == brute_force_count(graph, skel)

    def test_labeled_star(self, small_labeled_graph):
        p = Pattern.star(4, labels=[0, 1, 1, 1])
        assert GraphPiEngine().count(small_labeled_graph, p) == brute_force_count(
            small_labeled_graph, p
        )

    def test_vertex_induced_still_filters(self, small_graph):
        """IEP never applies to the Filter-UDF path (per-match checks)."""
        engine = GraphPiEngine()
        count = engine.count(small_graph, atlas.FOUR_STAR.vertex_induced())
        assert count == brute_force_count(
            small_graph, atlas.FOUR_STAR.vertex_induced()
        )
        assert engine.stats.filter_calls > 0


# -- block IEP: the routine Decompose and GraphPi share ----------------------

ATLAS_3_TO_5 = [p for n in (3, 4, 5) for p in atlas.all_connected_patterns(n)]
DECOMPOSABLE = [p for p in ATLAS_3_TO_5 if find_decompositions(p)]


def _scalar_candidates(graph, slot, images) -> np.ndarray:
    """One slot's candidate set the slow way: Python sets, no kernels."""
    anchors, label = slot
    cand = set.intersection(
        *(set(graph.neighbors(images[a]).tolist()) for a in anchors)
    )
    if label is not None and graph.is_labeled:
        cand = {v for v in cand if graph.label(v) == label}
    return np.array(sorted(cand - set(images)), dtype=np.int64)


class TestBlockIEP:
    """``block_distinct_counts`` row by row against ``ordered_distinct_count``."""

    @given(
        data=st.data(),
        labeled=st.booleans(),
        budget=st.sampled_from([1, None]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_scalar_reference(self, data, labeled, budget):
        graph = data.draw(data_graphs(min_n=5, max_n=10, labeled=labeled))
        skel = data.draw(st.sampled_from(DECOMPOSABLE))
        if labeled:
            skel = skel.with_labels(
                data.draw(
                    st.lists(st.integers(0, 2), min_size=skel.n, max_size=skel.n)
                )
            )
        dec = data.draw(st.sampled_from(find_decompositions(skel)))
        matches = list(brute_force_match_tuples(graph, dec.prefix))
        rows = np.array(matches, dtype=np.int64).reshape(len(matches), dec.prefix.n)
        patch = (
            mock.patch.object(frontier, "FRONTIER_ELEMENT_BUDGET", budget)
            if budget is not None
            else contextlib.nullcontext()
        )
        sizes: dict = {}
        with patch:
            for (family, _mult), (slots, _) in zip(dec.aut_classes, dec.families):
                got = block_distinct_counts(graph, slots, rows, EngineStats(), sizes)
                want = [
                    ordered_distinct_count(
                        [_scalar_candidates(graph, slot, m) for slot in family],
                        EngineStats(),
                    )
                    for m in matches
                ]
                assert got.tolist() == want

    def test_hub_products_past_int64_stay_exact(self):
        """A 70 000-leaf star: the 5-star's ordered term d(d-1)(d-2)(d-3)
        is past 2**63, the answer C(d, 4) is not — and must be exact."""
        d = 70_000
        star = DataGraph(d + 1, [(0, leaf) for leaf in range(1, d + 1)], name="star")
        assert d * (d - 1) * (d - 2) * (d - 3) > 2**63 > math.comb(d, 4)
        # Engine level on purpose: a session would first price the graph,
        # and the cost model's clustering scan is quadratic in a hub.
        for dec in find_decompositions(atlas.FIVE_STAR):
            if dec.prefix.n > 2:
                continue  # a wedge prefix has C(d, 2) matches here
            engine = PeregrineEngine()
            engine.batch_roots = 2048
            got = engine.aggregate(star, dec.prefix, DecomposedCount(dec))
            assert got == math.comb(d, 4), dec.suffix_size
        # GraphPi's own IEP is the same block routine on this kernel.
        engine = GraphPiEngine()
        engine.batch_roots = 2048
        assert engine.count(star, atlas.FIVE_STAR) == math.comb(d, 4)
        assert engine.stats.setops.batched > 0
