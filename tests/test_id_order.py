"""Vertex numbering is not an input of a count: the id-order axis.

Count and existence runs match :attr:`DataGraph.degree_ordered`, a copy
of the caller's graph with ids in ascending (degree, id) order, while
match lists, MNI tables and streams stay on the caller's ids. The
differential oracle (:func:`repro.testing.oracle.assert_matches_oracle`)
runs both sides of a comparison on one graph, and so on one ordered
copy: an ordering bug would be invisible to it. These properties compare
a graph against a random relabelling of itself and against brute force,
across engines x kernels x strategies x sharding.
"""

from __future__ import annotations

import ast
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import (
    BigJoinEngine,
    CountAggregation,
    ExistenceAggregation,
    GraphPiEngine,
    MatchListAggregation,
    MNIAggregation,
    PeregrineEngine,
)
from repro.core.atlas import FOUR_CYCLE, TAILED_TRIANGLE, TRIANGLE, motif_patterns
from repro.graph.datagraph import DataGraph
from repro.graph.generators import power_law_cluster
from repro.morph.session import MorphingSession

from .oracle import brute_force_count
from .strategies import connected_skeletons, data_graphs

ENGINES = (PeregrineEngine, GraphPiEngine, BigJoinEngine)
#: engine x batch_roots {per-root, default} x strategy x workers.
CONFIGS = list(product(ENGINES, (0, None), ("direct", "auto"), (1, 2)))


def relabelled(graph: DataGraph, perm) -> DataGraph:
    """``graph`` with vertex ``v`` renamed ``perm[v]``."""
    perm = np.asarray(perm)
    labels = None
    if graph.labels is not None:
        labels = np.empty_like(graph.labels)
        labels[perm] = graph.labels
    return DataGraph(
        graph.num_vertices, perm[graph.edge_array()], labels=labels, name=graph.name
    )


def ascending_degree_order(graph: DataGraph) -> np.ndarray:
    """The reference order: ``lexsort((ids, degrees))``."""
    return np.lexsort((np.arange(graph.num_vertices), graph.degrees))


def run_results(graph, patterns, aggregation, config):
    engine_cls, batch_roots, strategy, workers = config
    session = MorphingSession(
        engine_cls(),
        options=repro.RunOptions(
            aggregation=aggregation,
            strategy=strategy,
            batch_roots=batch_roots,
            workers=workers,
        ),
        # In-process shards: the windows are cut over the ordered ids
        # exactly as the pool's are, without a pool per example.
        executor="serial" if workers > 1 else None,
    )
    return session.run(graph, patterns).results


@st.composite
def graph_cases(draw):
    """A small graph, a relabelling of it, and 1-2 connected queries."""
    labeled = draw(st.booleans())
    graph = draw(data_graphs(min_n=4, max_n=10, labeled=labeled))
    perm = draw(st.permutations(list(range(graph.num_vertices))))
    queries = draw(
        st.lists(
            connected_skeletons(min_n=3, max_n=4, labeled=labeled),
            min_size=1,
            max_size=2,
        )
    )
    if draw(st.booleans()):
        queries = [q.vertex_induced() for q in queries]
    return graph, perm, list(dict.fromkeys(queries))


class TestIdOrderInvariance:
    @given(graph_cases())
    @settings(max_examples=40, deadline=None)
    def test_counts_and_existence_ignore_numbering(self, case):
        """On ``g`` and ``π(g)``, every configuration's count is brute
        force's, and existence is ``count > 0``."""
        graph, perm, queries = case
        other = relabelled(graph, perm)
        want = {q: brute_force_count(graph, q) for q in queries}
        for config, g in product(CONFIGS, (graph, other)):
            assert run_results(g, queries, CountAggregation(), config) == want, config
            exists = run_results(g, queries, ExistenceAggregation(), config)
            assert exists == {q: c > 0 for q, c in want.items()}, config

    def test_process_pool_counts_on_the_exported_ordered_copy(self):
        """Two pool threads count on the ordered copy, on both numberings
        of one graph."""
        graph = power_law_cluster(150, 4, 0.5, seed=5, name="pool")
        rng = np.random.default_rng(5)
        other = relabelled(graph, rng.permutation(graph.num_vertices))
        queries = [TRIANGLE, FOUR_CYCLE, TAILED_TRIANGLE.vertex_induced()]
        serial = repro.run(graph, queries).results
        for g in (graph, other):
            pooled = repro.run(g, queries, options=repro.RunOptions(workers=2))
            assert pooled.results == serial


class TestDegreeOrdered:
    @given(data_graphs(min_n=1, max_n=14, labeled=True), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_is_the_ascending_degree_relabelling(self, graph, keep_labels):
        if not keep_labels:
            graph = DataGraph(graph.num_vertices, graph.edge_array(), name="u")
        copy = graph.degree_ordered
        order = ascending_degree_order(graph)
        rank = np.empty_like(order)
        rank[order] = np.arange(graph.num_vertices)
        # Degrees ascend with ids, ties kept in original id order.
        assert np.array_equal(copy.degrees, graph.degrees[order])
        assert np.all(np.diff(copy.degrees) >= 0)
        # The edge set and labels map exactly under ``rank``.
        mapped = {tuple(sorted(e)) for e in rank[graph.edge_array()].tolist()}
        assert set(copy.edges()) == mapped
        if graph.labels is None:
            assert copy.labels is None
        else:
            assert np.array_equal(copy.labels, graph.labels[order])
        # A valid CSR: sorted rows, same dtypes, read-only.
        assert copy.indices.dtype == graph.indices.dtype
        assert not copy.indices.flags.writeable and not copy.indptr.flags.writeable
        for v in range(copy.num_vertices):
            assert np.all(np.diff(copy.neighbors(v)) > 0)
        assert (copy.name, copy.num_edges) == (graph.name, graph.num_edges)
        # Idempotent; the identity on an already ordered graph.
        assert copy.degree_ordered is copy
        if np.array_equal(order, np.arange(graph.num_vertices)):
            assert copy is graph
        else:
            assert copy.fingerprint != graph.fingerprint

    def test_already_ordered_graph_is_its_own_copy(self):
        path = DataGraph(4, [(0, 3), (1, 3), (2, 3)], name="star")
        assert path.degree_ordered is path


def _fresh(graph: DataGraph) -> DataGraph:
    """An equal graph with no lazies built yet."""
    return DataGraph(
        graph.num_vertices, graph.edge_array(), labels=graph.labels, name="fresh"
    )


def _built_ordered_copy(graph: DataGraph) -> bool:
    return "degree_ordered" in vars(graph)


class TestWhoMatchesTheOrderedCopy:
    @pytest.fixture
    def graph(self, small_graph):
        graph = _fresh(small_graph)
        assert graph.degree_ordered is not graph  # the copy is a real one
        del graph.degree_ordered
        return graph

    @pytest.mark.parametrize("aggregation", [CountAggregation, ExistenceAggregation])
    def test_count_and_existence_runs_do(self, graph, aggregation):
        options = repro.RunOptions(aggregation=aggregation())
        repro.run(graph, [TRIANGLE, FOUR_CYCLE], options=options)
        assert _built_ordered_copy(graph)

    @pytest.mark.parametrize(
        "aggregation",
        [MatchListAggregation, MNIAggregation, type("Sub", (CountAggregation,), {})],
    )
    def test_id_dependent_aggregations_do_not(self, graph, aggregation):
        options = repro.RunOptions(aggregation=aggregation())
        repro.run(graph, [TRIANGLE, FOUR_CYCLE], options=options)
        assert not _built_ordered_copy(graph)

    def test_caches_are_read_back_with_the_callers_graph(self, graph):
        """Plans and measurements are keyed by the graph the caller
        passed, not by the copy the run matched."""
        cache, plans = repro.MeasurementCache(), repro.PlanCache()
        options = repro.RunOptions(cache=cache, plan_cache=plans)
        motifs = motif_patterns(4)
        result = repro.run(graph, motifs, options=options)
        assert _built_ordered_copy(graph)
        shared = [s.item for s in result.plan.steps if s.query is None]
        assert shared
        for item in shared:
            assert cache.get(graph, CountAggregation(), item) is not None
        again = repro.run(graph, motifs, options=options)
        assert plans.hits == 1 and again.results == result.results

    def test_streaming_runs_do_not(self, graph):
        session = MorphingSession(PeregrineEngine())
        seen = []
        session.run_streaming(graph, [TRIANGLE], lambda q, m: seen.append(m))
        assert seen and not _built_ordered_copy(graph)
        assert all(graph.has_edge(m[0], m[1]) for m in seen)

    def test_only_count_and_existence_are_id_invariant(self):
        invariant = {
            cls.__name__
            for cls in (
                CountAggregation,
                ExistenceAggregation,
                MatchListAggregation,
                MNIAggregation,
            )
            if cls.id_invariant
        }
        assert invariant == {"CountAggregation", "ExistenceAggregation"}


SRC = Path(repro.__file__).parent


def _degree_ordered_reads(tree: ast.AST) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "degree_ordered"
    ]


class TestOneSwitch:
    def test_only_the_session_reads_the_ordered_copy(self):
        """The graph defines it; one line of ``_run`` hands it out."""
        reads = {}
        for path in sorted(SRC.rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            lines = _degree_ordered_reads(ast.parse(path.read_text()))
            if lines and relative != "graph/datagraph.py":
                reads[relative] = len(lines)
        assert reads == {"morph/session.py": 1}

    def test_the_check_sees_a_planted_read(self):
        planted = ast.parse("g = graph.degree_ordered\nh = g.degree_ordered.indices\n")
        assert _degree_ordered_reads(planted) == [1, 2]
