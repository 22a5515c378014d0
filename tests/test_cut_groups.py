"""One pass per cut: decomposed counts sharing a prefix fold together.

A plan's decompose steps are grouped by prefix (``CutGroup``) and each
group is one engine pass folding a ``DecomposedCount`` of all its
members. Edge-induced ``K₂,ₖ`` (C4 among them) is a pair cut: a root
prefix and wedge aggregation on the non-adjacent cut pair. These tests
pin that a group's fold equals each member's fold alone and brute force
on every connected 4- and 5-vertex pattern, labeled and not, across
strategy x kernel x sharding; that a group resumes from a checkpoint and
degrades under a deadline as one pass; and that the pair cut stays exact
on hub-heavy graphs at any element budget.
"""

from __future__ import annotations

from itertools import product
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import FaultPlan, FaultSpec, PartialRunResult, RetryPolicy, ShardCheckpoint
from repro.core import atlas
from repro.core.canonical import canonical_form
from repro.core.equations import normalize_item
from repro.core.pattern import Pattern
from repro.core.sdag import EDGE_INDUCED
from repro.engines import frontier
from repro.engines.frontier import DEFAULT_BATCH_ROOTS
from repro.engines.peregrine.engine import PeregrineEngine
from repro.graph.datagraph import DataGraph
from repro.graph.generators import power_law_cluster
from repro.graph.partition import budget_ranges
from repro.morph.session import MorphingSession
from repro.plan.rewrite import CutGroup
from repro.plan.rules import Decompose, DecomposedCount, PairCut, find_pair_cuts

from .oracle import brute_force_count
from .strategies import data_graphs

ATLAS_4_5 = [p for n in (4, 5) for p in atlas.all_connected_patterns(n)]
#: strategy x batch_roots {per-root, default} x workers.
CONFIGS = list(product(("decompose", "auto"), (0, None), (1, 2)))
NOSLEEP = RetryPolicy(max_retries=3, backoff_seconds=0.0, sleep=lambda _s: None)


def k2(k: int, labels=None) -> Pattern:
    """``K₂,ₖ``: cut vertices 0 and 1, twins ``2..k+1``."""
    edges = [(c, t) for c in (0, 1) for t in range(2, k + 2)]
    return Pattern(k + 2, edges, labels=labels)


@st.composite
def cases(draw):
    """A small graph and every connected 4-/5-vertex pattern, labeled
    alike (two labels, drawn per vertex) when the graph is."""
    labeled = draw(st.booleans())
    graph = draw(data_graphs(min_n=5, max_n=8, labeled=labeled))
    patterns = ATLAS_4_5
    if labeled:
        patterns = [
            p.with_labels(draw(st.lists(st.integers(0, 1), min_size=p.n, max_size=p.n)))
            for p in ATLAS_4_5
        ]
    return graph, patterns


def every_cut_group(patterns) -> list[CutGroup]:
    """Every legal cut of every pattern, grouped by prefix: the widest
    groups the planner could form."""
    by_prefix: dict = {}
    for p in patterns:
        for cut in Decompose().candidates((p, EDGE_INDUCED)):
            by_prefix.setdefault(cut.prefix, []).append(cut)
    return list(by_prefix.values())


def fold(graph, members, batch_roots) -> tuple[int, ...]:
    """One engine pass of a group's fold on ``graph``."""
    engine = PeregrineEngine()
    engine.batch_roots = batch_roots
    return engine.aggregate(graph, members[0].prefix, DecomposedCount(tuple(members)))


class TestGroupFold:
    @given(cases())
    @settings(max_examples=12, deadline=None)
    def test_group_fold_equals_each_member_alone_equals_brute_force(self, case):
        graph, patterns = case
        want = {}
        for members in every_cut_group(patterns):
            for batch_roots in (None, DEFAULT_BATCH_ROOTS):
                together = fold(graph, members, batch_roots)
                alone = tuple(fold(graph, [m], batch_roots)[0] for m in members)
                assert together == alone, batch_roots
                for member, got in zip(members, together):
                    skel = member.skeleton
                    if skel not in want:
                        want[skel] = brute_force_count(graph, skel)
                    assert got == want[skel], (member.key, batch_roots)

    @given(cases())
    @settings(max_examples=8, deadline=None)
    def test_sessions_equal_brute_force_on_every_axis(self, case):
        graph, patterns = case
        want = {p: brute_force_count(graph, p) for p in patterns}
        for strategy, batch_roots, workers in CONFIGS:
            session = MorphingSession(
                PeregrineEngine(),
                options=repro.RunOptions(
                    strategy=strategy, batch_roots=batch_roots, workers=workers
                ),
                # In-process shards: the same windows as a pool's.
                executor="serial" if workers > 1 else None,
            )
            result = session.run(graph, patterns)
            assert result.results == want, (strategy, batch_roots, workers)
            if strategy == "decompose":
                assert result.plan.decompose_groups

    def test_a_pool_folds_a_group_across_processes(self, small_graph):
        patterns = [atlas.FOUR_STAR, atlas.FOUR_CYCLE, atlas.FIVE_STAR]
        options = dict(strategy="decompose")
        serial = repro.run(small_graph, patterns, options=repro.RunOptions(**options))
        pooled = repro.run(
            small_graph, patterns, options=repro.RunOptions(workers=2, **options)
        )
        assert pooled.results == serial.results == {
            p: brute_force_count(small_graph, p) for p in patterns
        }
        (group,) = pooled.plan.decompose_groups
        assert len(group.items) == 3

    def test_a_group_is_one_pass_one_span_and_one_audit(self, small_graph):
        patterns = [atlas.FOUR_PATH, atlas.TAILED_TRIANGLE, atlas.CHORDAL_FOUR_CYCLE]
        tracer = repro.Tracer()
        result = repro.run(
            small_graph,
            patterns,
            options=repro.RunOptions(strategy="decompose", trace=tracer),
        )
        (group,) = result.plan.decompose_groups
        assert len(group.items) == 3
        assert result.plan.units == (group,)
        (span,) = result.trace.find("match.item")
        assert span.attributes["item"] == group.label
        (kernel,) = result.trace.find("kernel.batched")
        assert kernel.attributes["fold"] == DecomposedCount(group.members).name
        (audit,) = [a for a in result.trace.audits if a.role != "selection"]
        steps = group.steps
        assert audit.predicted_cost == pytest.approx(
            steps[0].prefix_cost
            + sum(s.predicted_cost - s.prefix_cost for s in steps)
        )
        assert audit.predicted_cost < sum(s.predicted_cost for s in steps)
        assert audit.measured_matches == sum(result.results.values())


class TestGroupRecovery:
    QUERIES = [atlas.FOUR_STAR, atlas.FOUR_CYCLE]

    def test_members_are_cached_apart_and_a_group_runs_what_is_missing(
        self, small_graph
    ):
        cache = repro.MeasurementCache()
        options = dict(strategy="decompose", cache=cache)
        repro.run(small_graph, self.QUERIES, options=repro.RunOptions(**options))
        aggregation = repro.CountAggregation()
        for query in self.QUERIES:
            item = normalize_item(query, EDGE_INDUCED)
            assert cache.get(small_graph, aggregation, item) == brute_force_count(
                small_graph, query
            )
        tracer = repro.Tracer()
        queries = self.QUERIES + [atlas.FIVE_STAR]
        result = repro.run(
            small_graph, queries, options=repro.RunOptions(trace=tracer, **options)
        )
        (group,) = result.plan.decompose_groups
        assert len(group.items) == 3
        (span,) = result.trace.find("match.item")
        assert span.attributes["item"] == "5S^E"
        assert result.results == {q: brute_force_count(small_graph, q) for q in queries}

    def test_a_group_resumes_from_its_checkpoint(self, small_graph, tmp_path):
        path = tmp_path / "group.ckpt.jsonl"
        options = dict(strategy="decompose", checkpoint=path)
        first = repro.run(small_graph, self.QUERIES, options=repro.RunOptions(**options))
        (group,) = first.plan.units
        assert isinstance(group, CutGroup) and len(group.items) == 2
        journal = ShardCheckpoint(path)
        journaled = len(journal)
        journal.close()
        assert journaled > 0
        tracer = repro.Tracer()
        resumed = repro.run(
            small_graph, self.QUERIES, options=repro.RunOptions(trace=tracer, **options)
        )
        assert resumed.results == first.results == {
            p: brute_force_count(small_graph, p) for p in self.QUERIES
        }
        assert len(resumed.trace.find("shard.checkpoint")) == journaled
        assert not resumed.trace.find("kernel.batched")

    def test_a_deadline_marks_every_member_incomplete(self, small_graph):
        result = repro.run(
            small_graph,
            self.QUERIES,
            options=repro.RunOptions(
                strategy="decompose",
                deadline_seconds=0.25,
                faults=FaultPlan({2: FaultSpec("hang", times=None)}),
                retry=NOSLEEP,
            ),
        )
        assert isinstance(result, PartialRunResult)
        (group,) = result.plan.units
        assert set(result.partial_items) == set(group.items)
        assert all(isinstance(v, int) for v in result.partial_items.values())
        assert set(result.unresolved) == set(self.QUERIES)
        assert result.results == {}
        assert 0 < result.completed_shards < result.total_shards


def hub_graph(hubs: int, leaves: int, seed: int) -> DataGraph:
    """A sparse power-law graph plus ``hubs`` vertices adjacent to every
    one of ``leaves`` others — wide rows and dense common neighbourhoods."""
    base = power_law_cluster(leaves, 2, 0.3, seed=seed)
    edges = [tuple(e) for e in base.edge_array().tolist()]
    edges += [(leaves + h, v) for h in range(hubs) for v in range(leaves)]
    return DataGraph(leaves + hubs, edges, name="hubs")


def closed_form_k2(graph: DataGraph, k: int) -> int:
    """``K₂,ₖ`` from common-neighbour counts: each unordered pair adds
    ``C(c, k)``; a 4-cycle is seen from both of its diagonals."""
    n = graph.num_vertices
    a = np.zeros((n, n), dtype=np.int64)
    a[tuple(graph.edge_array().T)] = 1
    a = a | a.T
    common = a @ a
    pairs = common[np.triu_indices(n, 1)]
    total = sum(comb(int(c), k) for c in pairs)
    return total // 2 if k == 2 else total


class TestPairCut:
    @given(st.lists(st.integers(0, 20), max_size=30), st.integers(1, 25))
    def test_root_ranges_cover_every_row_within_the_budget(self, widths, budget):
        ranges = list(budget_ranges(np.array(widths, dtype=np.int64), budget))
        assert [i for lo, hi in ranges for i in range(lo, hi)] == list(range(len(widths)))
        for lo, hi in ranges:
            assert hi - lo == 1 or sum(widths[lo:hi]) <= budget

    def test_only_k2k_has_a_pair_cut(self):
        k2ks = {canonical_form(k2(2)), canonical_form(k2(3))}
        assert {canonical_form(p) for p in ATLAS_4_5 if find_pair_cuts(p)} == k2ks
        (c4,) = find_pair_cuts(atlas.FOUR_CYCLE)
        assert (c4.twins, c4.orientation, c4.prefix.n) == (2, "max", 1)
        (k23,) = find_pair_cuts(k2(3))
        assert k23.orientation == "pair"
        assert find_pair_cuts(atlas.FOUR_CYCLE.vertex_induced()) == ()

    def test_orientation_follows_the_labels(self):
        # Opposite pairs labeled alike: either diagonal is a cut.
        alternating = find_pair_cuts(k2(2, labels=[0, 0, 1, 1]))
        assert {c.orientation for c in alternating} == {"pair"}
        assert len(alternating) == 2
        # Two cut labels: no orientation, and either end may root.
        split = find_pair_cuts(k2(3, labels=[0, 1, 2, 2, 2]))
        assert {(c.prefix.label(0), c.far_label) for c in split} == {(0, 1), (1, 0)}
        assert {c.orientation for c in split} == {"none"}
        # Twins of two labels: no pair cut.
        assert find_pair_cuts(k2(3, labels=[0, 0, 1, 1, 2])) == ()

    @pytest.mark.parametrize("budget", [1, 7, None])
    @pytest.mark.parametrize("k", [2, 3])
    def test_hub_heavy_counts_equal_the_closed_form(self, k, budget):
        graph = hub_graph(hubs=3, leaves=60, seed=k)
        want = closed_form_k2(graph, k)
        (cut,) = find_pair_cuts(k2(k))
        budget = budget or frontier.FRONTIER_ELEMENT_BUDGET
        with mock.patch.object(frontier, "FRONTIER_ELEMENT_BUDGET", budget):
            for batch_roots in (None, DEFAULT_BATCH_ROOTS):
                assert fold(graph, [cut], batch_roots) == (want,)
        direct = repro.run(graph, [k2(k)], options=repro.RunOptions(strategy="direct"))
        assert direct.results[k2(k)] == want

    def test_labeled_pair_cuts_equal_brute_force(self, small_labeled_graph):
        for labels in ([0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 2], [1, 1, 1, 1, 1]):
            pattern = k2(len(labels) - 2, labels=labels)
            want = brute_force_count(small_labeled_graph, pattern)
            for cut in find_pair_cuts(pattern):
                assert fold(small_labeled_graph, [cut], DEFAULT_BATCH_ROOTS) == (want,)

    def test_auto_takes_the_pair_cut_for_c4_on_the_headline_graph(self):
        """A 900-vertex power-law-cluster graph (the 4-motif benchmark's
        shape): C4's direct match is the dearest item, and its pair cut
        is priced under the margin."""
        graph = power_law_cluster(900, 6, 0.5, seed=1)
        result = repro.run(graph, list(atlas.motif_patterns(4)))
        step = result.plan.step_for(normalize_item(atlas.FOUR_CYCLE, EDGE_INDUCED))
        assert isinstance(step.decomposition, PairCut)
        assert step.predicted_cost < 0.6 * step.direct_cost

