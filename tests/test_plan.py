"""Tests for exploration plans (matching orders, symmetry conditions)."""

from __future__ import annotations

import pytest

from repro.core import atlas
from repro.core.isomorphism import automorphisms
from repro.core.pattern import Pattern
from repro.engines.base import EngineStats, run_plan
from repro.engines.plan import ExplorationPlan

from .oracle import brute_force_count


class TestPlanConstruction:
    def test_levels_cover_all_vertices(self):
        plan = ExplorationPlan.build(atlas.CHORDAL_FOUR_CYCLE)
        assert sorted(lv.pattern_vertex for lv in plan.levels) == [0, 1, 2, 3]

    def test_backward_references_are_earlier(self):
        for p in atlas.motif_patterns(4):
            plan = ExplorationPlan.build(p)
            for i, lv in enumerate(plan.levels):
                assert all(j < i for j in lv.backward_neighbors)
                assert all(j < i for j in lv.backward_anti)
                assert all(j < i for j in lv.upper_bounds + lv.lower_bounds)

    def test_anti_positions_need_injectivity_check(self):
        plan = ExplorationPlan.build(atlas.FOUR_CYCLE.vertex_induced())
        for i, lv in enumerate(plan.levels):
            assert set(lv.non_adjacent) == set(range(i)) - set(lv.backward_neighbors)

    def test_custom_order(self):
        order = [3, 2, 1, 0]
        plan = ExplorationPlan.build(atlas.FOUR_PATH, order=order)
        assert [lv.pattern_vertex for lv in plan.levels] == order

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            ExplorationPlan.build(atlas.FOUR_PATH, order=[0, 0, 1, 2])

    def test_labels_carried(self):
        p = Pattern.path(3, labels=[5, 6, 7])
        plan = ExplorationPlan.build(p)
        labels = {lv.pattern_vertex: lv.label for lv in plan.levels}
        assert labels == {0: 5, 1: 6, 2: 7}

    def test_match_to_pattern_order(self):
        plan = ExplorationPlan.build(atlas.FOUR_PATH, order=[1, 0, 2, 3])
        # stack is per-level; output must be indexed by pattern vertex.
        out = plan.match_to_pattern_order([10, 11, 12, 13])
        assert out[1] == 10 and out[0] == 11 and out[2] == 12 and out[3] == 13


class TestSymmetryBreaking:
    def test_without_breaking_counts_embeddings(self, tiny_graph):
        """No symmetry breaking => each subgraph found |Aut| times."""
        p = atlas.TRIANGLE
        broken = ExplorationPlan.build(p, symmetry_breaking=True)
        unbroken = ExplorationPlan.build(p, symmetry_breaking=False)
        broken_count = run_plan(tiny_graph, broken, EngineStats())
        unbroken_count = run_plan(tiny_graph, unbroken, EngineStats())
        assert unbroken_count == broken_count * len(automorphisms(p))

    def test_star_symmetry(self, small_graph):
        p = atlas.FOUR_STAR
        broken = run_plan(
            small_graph, ExplorationPlan.build(p, symmetry_breaking=True), EngineStats()
        )
        unbroken = run_plan(
            small_graph,
            ExplorationPlan.build(p, symmetry_breaking=False),
            EngineStats(),
        )
        assert unbroken == broken * 6
        assert broken == brute_force_count(small_graph, p)

    def test_every_order_counts_the_same(self, tiny_graph):
        """Counting is order-independent (orders change cost, not results)."""
        from itertools import permutations

        p = atlas.TAILED_TRIANGLE
        expected = brute_force_count(tiny_graph, p)
        valid_orders = 0
        for order in permutations(range(4)):
            # Only connected-prefix orders are supported by the kernel.
            placed: set = set()
            ok = True
            for i, v in enumerate(order):
                if i and not (p.neighbors(v) & placed):
                    ok = False
                    break
                placed.add(v)
            if not ok:
                continue
            valid_orders += 1
            plan = ExplorationPlan.build(p, order=list(order))
            assert run_plan(tiny_graph, plan, EngineStats()) == expected
        assert valid_orders > 4


class TestSingleVertexPlan:
    def test_one_vertex_pattern(self, small_labeled_graph):
        p = Pattern(1, [], labels=[0])
        plan = ExplorationPlan.build(p)
        count = run_plan(small_labeled_graph, plan, EngineStats())
        assert count == len(small_labeled_graph.vertices_by_label[0])


class TestPlanDescribe:
    def test_star_plan(self):
        text = ExplorationPlan.build(atlas.FOUR_STAR).describe()
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("← V")
        assert "N(v0)" in lines[1]
        assert "> v1" in lines[2] or "< v" in lines[2]  # symmetry bounds

    def test_vertex_induced_shows_differences(self):
        text = ExplorationPlan.build(atlas.FOUR_CYCLE.vertex_induced()).describe()
        assert "∖ N(" in text

    def test_intersections_shown(self):
        text = ExplorationPlan.build(atlas.CHORDAL_FOUR_CYCLE).describe()
        assert "∩" in text

    def test_labels_shown(self):
        p = Pattern.path(3, labels=[1, 2, 1])
        text = ExplorationPlan.build(p).describe()
        assert "label=" in text
