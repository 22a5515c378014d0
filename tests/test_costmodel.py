"""Tests for the probabilistic cost model (Section 5.2)."""

from __future__ import annotations

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import atlas
from repro.core.aggregation import CountAggregation, MNIAggregation
from repro.core import costmodel
from repro.core.costmodel import (
    CostModel,
    EngineCostProfile,
    GraphModel,
    matching_order,
)
from repro.core.pattern import Pattern
from repro.core.sdag import EDGE_INDUCED, VERTEX_INDUCED
from repro.graph.datagraph import DataGraph
from repro.graph.generators import assign_labels, power_law_cluster

from .strategies import data_graphs


@pytest.fixture(scope="module")
def model(medium_graph_module):
    return GraphModel.from_graph(medium_graph_module)


@pytest.fixture(scope="module")
def medium_graph_module():
    return power_law_cluster(200, 5, 0.5, seed=2, name="cm")


class TestGraphModel:
    def test_fields_sane(self, model):
        assert model.num_vertices == 200
        assert 0.0 < model.edge_prob < 1.0
        assert model.biased_degree >= model.avg_degree  # Jensen
        assert 0.0 < model.closure_prob <= 1.0

    def test_label_fractions(self):
        g = assign_labels(power_law_cluster(100, 3, 0.3, seed=4), 4, seed=5)
        m = GraphModel.from_graph(g)
        assert abs(sum(m.label_fractions.values()) - 1.0) < 1e-9
        assert m.label_fraction(None) == 1.0
        assert m.label_fraction(0) > 0.0

    def test_unlabeled_fraction_is_one(self, model):
        assert model.label_fraction(3) == 1.0


def _transitivity(graph: DataGraph) -> float:
    """``3 · triangles / wedges`` by enumerating vertex triples."""
    n = graph.num_vertices
    triangles = sum(
        graph.has_edge(a, b) and graph.has_edge(b, c) and graph.has_edge(a, c)
        for a, b, c in combinations(range(n), 3)
    )
    wedges = sum(int(d) * (int(d) - 1) // 2 for d in graph.degrees)
    return 3 * triangles / wedges if wedges else 0.0


class TestClosureProbability:
    """``closure_prob`` is the exact transitivity: a graph invariant."""

    @given(data_graphs(min_n=1, max_n=14), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_exact_and_independent_of_numbering(self, graph, rng):
        perm = np.array(rng.sample(range(graph.num_vertices), graph.num_vertices))
        other = DataGraph(graph.num_vertices, perm[graph.edge_array()])
        want = _transitivity(graph)
        assert costmodel._clustering_coefficient(graph) == pytest.approx(want)
        assert costmodel._clustering_coefficient(
            other
        ) == costmodel._clustering_coefficient(graph)

    def test_probe_chunks_do_not_change_the_value(self):
        graph = power_law_cluster(300, 4, 0.5, seed=3)
        want = costmodel._clustering_coefficient(graph)
        with mock.patch.object(costmodel, "_PROBE_CHUNK", 1):
            assert costmodel._clustering_coefficient(graph) == want

    def test_relabelled_graph_has_the_same_model(self):
        graph = power_law_cluster(400, 5, 0.5, seed=8)
        perm = np.random.default_rng(8).permutation(graph.num_vertices)
        other = DataGraph(graph.num_vertices, perm[graph.edge_array()])
        assert GraphModel._build(graph, 95.0) == GraphModel._build(other, 95.0)
        assert GraphModel._build(graph.degree_ordered, 95.0) == GraphModel._build(
            graph, 95.0
        )


class TestLoopProfileMemo:
    def test_repeated_pricing_computes_each_key_once(self, model):
        cm = CostModel(model)
        with mock.patch.object(
            CostModel, "_compute_profile", autospec=True,
            side_effect=CostModel._compute_profile,
        ) as compute:
            for _ in range(3):
                cm.pattern_cost(atlas.FOUR_CYCLE, EDGE_INDUCED)
                cm.estimated_matches(atlas.FOUR_CYCLE, EDGE_INDUCED)
                cm.order_cost(atlas.FOUR_CYCLE, EDGE_INDUCED, [0, 1, 2, 3])
        assert compute.call_count == 2  # default order, and [0, 1, 2, 3]
        fresh = CostModel(model)
        assert fresh.pattern_cost(atlas.FOUR_CYCLE, EDGE_INDUCED) == cm.pattern_cost(
            atlas.FOUR_CYCLE, EDGE_INDUCED
        )


class TestPatternCosts:
    def test_positive(self, model):
        cm = CostModel(model)
        for p in atlas.all_connected_patterns(4):
            assert cm.pattern_cost(p, EDGE_INDUCED) > 0
            assert cm.pattern_cost(p, VERTEX_INDUCED) > 0

    def test_clique_variants_equal(self, model):
        cm = CostModel(model)
        k4 = Pattern.clique(4)
        assert cm.pattern_cost(k4, EDGE_INDUCED) == cm.pattern_cost(
            k4, VERTEX_INDUCED
        )

    def test_vertex_variant_costs_more_for_counting(self, model):
        """Anti-edges add set differences; counting gains nothing back —
        the Section 7.1 direction."""
        cm = CostModel(model, aggregation=CountAggregation())
        for p in (atlas.FOUR_STAR, atlas.FOUR_PATH, atlas.TAILED_TRIANGLE):
            assert cm.pattern_cost(p, VERTEX_INDUCED) > cm.pattern_cost(
                p, EDGE_INDUCED
            )

    def test_expensive_udf_flips_the_preference(self, model):
        """With a heavy per-match UDF the fewer-match V variant wins — the
        Section 7.2 (FSM) direction."""
        cm = CostModel(model, aggregation=MNIAggregation())
        p = atlas.FOUR_STAR
        assert cm.pattern_cost(p, VERTEX_INDUCED) < cm.pattern_cost(
            p, EDGE_INDUCED
        )

    def test_filter_engines_pay_for_anti_edges(self, model):
        native = CostModel(model, EngineCostProfile(native_anti_edges=True))
        filtered = CostModel(model, EngineCostProfile(native_anti_edges=False))
        # The 4-star's edge-induced match count dwarfs its vertex-induced
        # one, so paying a filter probe per edge-induced match is clearly
        # worse than native anti-edge set differences.
        p = atlas.FOUR_STAR
        assert filtered.pattern_cost(p, VERTEX_INDUCED) > native.pattern_cost(
            p, VERTEX_INDUCED
        )

    def test_rare_labels_reduce_cost(self):
        g = assign_labels(power_law_cluster(150, 4, 0.4, seed=6), 10, skew=2.0, seed=7)
        cm = CostModel.for_graph(g)
        m = GraphModel.from_graph(g)
        rare = min(m.label_fractions, key=m.label_fractions.get)
        common = max(m.label_fractions, key=m.label_fractions.get)
        p_rare = Pattern.path(3, labels=[rare] * 3)
        p_common = Pattern.path(3, labels=[common] * 3)
        assert cm.pattern_cost(p_rare, EDGE_INDUCED) < cm.pattern_cost(
            p_common, EDGE_INDUCED
        )

    def test_unknown_variant_rejected(self, model):
        with pytest.raises(ValueError):
            CostModel(model).pattern_cost(atlas.TRIANGLE, "X")

    def test_set_cost_is_sum(self, model):
        cm = CostModel(model)
        items = [(atlas.FOUR_CYCLE, EDGE_INDUCED), (atlas.FOUR_CLIQUE, EDGE_INDUCED)]
        assert cm.pattern_set_cost(items) == pytest.approx(
            sum(cm.pattern_cost(*i) for i in items)
        )


class TestMatchEstimates:
    def test_denser_patterns_have_fewer_matches(self, model):
        cm = CostModel(model)
        assert cm.estimated_matches(
            atlas.FOUR_CLIQUE, EDGE_INDUCED
        ) < cm.estimated_matches(atlas.FOUR_CYCLE, EDGE_INDUCED)

    def test_vertex_variant_never_more(self, model):
        cm = CostModel(model)
        for p in atlas.all_connected_patterns(4):
            assert cm.estimated_matches(p, VERTEX_INDUCED) <= cm.estimated_matches(
                p, EDGE_INDUCED
            ) * (1 + 1e-9)

    def test_rank_correlation_with_reality(self, medium_graph_module):
        """The model must rank real match counts roughly correctly."""
        from repro.engines.peregrine.engine import PeregrineEngine

        cm = CostModel.for_graph(medium_graph_module)
        engine = PeregrineEngine()
        pats = list(atlas.all_connected_patterns(4))
        est = [cm.estimated_matches(p, EDGE_INDUCED) for p in pats]
        real = [engine.count(medium_graph_module, p) for p in pats]
        # Spearman-style check: order of estimates vs order of true counts.
        est_rank = sorted(range(len(pats)), key=lambda i: est[i])
        real_rank = sorted(range(len(pats)), key=lambda i: real[i])
        agreements = sum(1 for a, b in zip(est_rank, real_rank) if a == b)
        assert agreements >= len(pats) // 2


class TestMatchingOrder:
    def test_is_permutation(self):
        for p in atlas.all_connected_patterns(5):
            order = matching_order(p)
            assert sorted(order) == list(range(p.n))

    def test_connected_prefix(self):
        for p in atlas.all_connected_patterns(5):
            placed = set()
            for i, v in enumerate(matching_order(p)):
                if i:
                    assert p.neighbors(v) & placed
                placed.add(v)

    def test_starts_at_max_degree(self):
        assert matching_order(atlas.FOUR_STAR)[0] == 0


class TestOrderCost:
    def test_bad_orders_cost_more(self, model):
        """A star matched leaves-first explodes; core-first is cheap."""
        cm = CostModel(model)
        star = atlas.FOUR_STAR
        good = cm.order_cost(star, EDGE_INDUCED, [0, 1, 2, 3])
        bad = cm.order_cost(star, EDGE_INDUCED, [1, 2, 3, 0])
        assert good < bad


class TestUdfProfiling:
    """Section 5.2's UDF profiling (dummy matches, measured cost)."""

    def test_profiles_positive_cost(self, medium_graph_module):
        from repro.core.costmodel import profile_udf_cost

        cost = profile_udf_cost(
            lambda match: sum(match), atlas.TRIANGLE, medium_graph_module
        )
        assert cost > 0.0

    def test_expensive_udf_costs_more(self, medium_graph_module):
        from repro.core.costmodel import profile_udf_cost

        def cheap(match):
            return None

        def expensive(match):
            total = 0.0
            for _ in range(50):
                total += sum(match)
            return total

        cheap_cost = profile_udf_cost(cheap, atlas.TRIANGLE, medium_graph_module)
        expensive_cost = profile_udf_cost(
            expensive, atlas.TRIANGLE, medium_graph_module
        )
        assert expensive_cost > cheap_cost

    def test_exceptions_tolerated(self, medium_graph_module):
        from repro.core.costmodel import profile_udf_cost

        def flaky(match):
            raise RuntimeError("dummy matches may be nonsense")

        cost = profile_udf_cost(flaky, atlas.TRIANGLE, medium_graph_module)
        assert cost >= 0.0

    def test_deterministic_dummy_matches(self, medium_graph_module):
        from repro.core.costmodel import profile_udf_cost

        seen: list = []

        def record(match):
            seen.append(match)

        profile_udf_cost(record, atlas.TRIANGLE, medium_graph_module, samples=10, seed=4)
        first = list(seen)
        seen.clear()
        profile_udf_cost(record, atlas.TRIANGLE, medium_graph_module, samples=10, seed=4)
        assert seen == first
        assert all(len(set(m)) == 3 for m in first)  # injective dummies
