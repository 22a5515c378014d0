"""Differential tests for the shard-parallel execution layer.

The layer's contract is exact: ``run(workers=1)`` and ``run(workers=N)``
return *identical* values — counts, MNI tables, existence booleans, and
match lists byte-for-byte in the same order — for every engine, every
aggregation, and both the morphed and baseline session paths. The
property tests here pin that contract against random graphs, with the
brute-force oracle as an independent third opinion on counts.

Most differential cases use ``executor="serial"`` (in-process sharding:
the same split/merge machinery without process-pool overhead); a small
set of dedicated tests exercises the real ``ProcessShardExecutor``.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings

import repro.engines.base as base
from repro.core.aggregation import (
    CountAggregation,
    ExistenceAggregation,
    MatchListAggregation,
    MNIAggregation,
)
from repro.core.atlas import FOUR_CYCLE, TAILED_TRIANGLE, TRIANGLE
from repro.engines.autozero.engine import AutoZeroEngine
from repro.engines.base import EngineStats
from repro.engines.bigjoin.engine import BigJoinEngine
from repro.engines.execution import (
    CancelFlag,
    ProcessShardExecutor,
    SerialShardExecutor,
    default_shard_count,
    make_executor,
)
from repro.engines.graphpi.engine import GraphPiEngine
from repro.engines.peregrine.engine import PeregrineEngine
from repro.engines.sumpa.engine import SumPAEngine
from repro.graph.datagraph import DataGraph
from repro.graph.partition import shard_by_degree_prefix
from repro.morph.session import MorphingSession
from repro.testing.oracle import assert_matches_oracle

from .oracle import brute_force_count
from .strategies import data_graphs, shard_counts

ENGINES = [
    PeregrineEngine,
    AutoZeroEngine,
    GraphPiEngine,
    BigJoinEngine,
    SumPAEngine,
]

AGGREGATIONS = [
    CountAggregation,
    MNIAggregation,
    MatchListAggregation,
    ExistenceAggregation,
]

#: Query mix: plain, anti-edge (vertex-induced), and cyclic patterns.
QUERIES = [TRIANGLE, TAILED_TRIANGLE.vertex_induced(), FOUR_CYCLE]


# -- sharding ---------------------------------------------------------------


class TestShardByDegreePrefix:
    @given(data_graphs(min_n=1, max_n=20), shard_counts())
    @settings(max_examples=30, deadline=None)
    def test_windows_partition_vertex_range(self, graph, num_shards):
        shards = shard_by_degree_prefix(graph, num_shards)
        assert 1 <= len(shards) <= num_shards
        assert shards[0][0] == 0
        assert shards[-1][1] == graph.num_vertices
        for (_, hi), (lo, _) in zip(shards, shards[1:]):
            assert hi == lo  # contiguous, half-open, ascending
        for lo, hi in shards:
            assert lo < hi  # no empty shards

    @given(data_graphs(min_n=2, max_n=12), shard_counts())
    @settings(max_examples=15, deadline=None)
    def test_deterministic(self, graph, num_shards):
        assert shard_by_degree_prefix(graph, num_shards) == shard_by_degree_prefix(
            graph, num_shards
        )

    def test_more_shards_than_vertices(self):
        graph = DataGraph(3, [(0, 1), (1, 2)], name="tri-path")
        shards = shard_by_degree_prefix(graph, 10)
        assert shards == [(0, 1), (1, 2), (2, 3)]

    def test_single_shard_is_whole_range(self, small_graph):
        assert shard_by_degree_prefix(small_graph, 1) == [
            (0, small_graph.num_vertices)
        ]

    def test_degree_balancing_splits_heavy_prefix(self):
        # A star: vertex 0 carries all the degree, so the first shard
        # should be narrow and the tail shards wide.
        n = 16
        graph = DataGraph(n, [(0, v) for v in range(1, n)], name="star")
        shards = shard_by_degree_prefix(graph, 4)
        widths = [hi - lo for lo, hi in shards]
        assert widths[0] < widths[-1]


# -- engine-level differential matrix ---------------------------------------


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("aggregation_cls", AGGREGATIONS)
class TestEngineParallelDifferential:
    """``engine.run`` parallel == serial for every engine × aggregation."""

    @given(data_graphs(min_n=4, max_n=10), shard_counts())
    @settings(max_examples=6, deadline=None)
    def test_sharded_equals_serial(
        self, engine_cls, aggregation_cls, graph, num_shards
    ):
        for pattern in QUERIES:
            serial_engine = engine_cls()
            serial = serial_engine.run(graph, pattern, aggregation_cls())
            sharded_engine = engine_cls()
            sharded = sharded_engine.run(
                graph,
                pattern,
                aggregation_cls(),
                workers=4,
                num_shards=num_shards,
                executor="serial",
            )
            assert sharded == serial
            if aggregation_cls is CountAggregation:
                assert serial == brute_force_count(graph, pattern)
            if aggregation_cls is MatchListAggregation:
                # Byte-identical, not just set-equal: shard-order merge
                # must reproduce the serial enumeration order.
                assert pickle.dumps(sharded) == pickle.dumps(serial)
            if aggregation_cls is not ExistenceAggregation:
                # Existence cancels mid-run, legitimately skipping work;
                # every other aggregation must do identical work.
                assert (
                    sharded_engine.stats.matches == serial_engine.stats.matches
                )


# -- session-level differential (morphed and baseline paths) ----------------


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestSessionParallelDifferential:
    @given(data_graphs(min_n=4, max_n=10), shard_counts())
    @settings(max_examples=5, deadline=None)
    def test_counts_match_serial_and_oracle(self, engine_cls, graph, num_shards):
        for enabled in (False, True):
            for sink in ("store", "stream"):
                _parallel, serial = assert_matches_oracle(
                    graph,
                    QUERIES,
                    engine_cls,
                    sink=sink,
                    oracle_kwargs={"enabled": enabled},
                    enabled=enabled,
                    workers=4,
                    executor="serial",
                )
                for pattern in QUERIES:
                    got = serial.results[pattern]
                    assert (got if sink == "store" else len(got)) == (
                        brute_force_count(graph, pattern)
                    )

    @given(data_graphs(min_n=4, max_n=10))
    @settings(max_examples=4, deadline=None)
    def test_mni_matches_serial(self, engine_cls, graph):
        for enabled in (False, True):
            assert_matches_oracle(
                graph,
                QUERIES,
                engine_cls,
                MNIAggregation,
                oracle_kwargs={"enabled": enabled},
                enabled=enabled,
                workers=4,
                executor="serial",
            )


class TestStreamingParallel:
    def test_streaming_order_matches_serial(self, small_graph):
        def run(workers):
            seen = []
            session = MorphingSession(
                PeregrineEngine(),
                workers=workers,
                executor="serial" if workers > 1 else None,
            )
            session.run_streaming(
                small_graph,
                QUERIES,
                lambda pattern, match: seen.append((pattern, match)),
            )
            return seen

        assert run(4) == run(1)


# -- the real process pool --------------------------------------------------


@pytest.mark.parametrize("engine_cls", [PeregrineEngine, GraphPiEngine])
def test_process_pool_equals_serial(engine_cls, small_graph):
    for pattern in QUERIES:
        serial = engine_cls().run(small_graph, pattern)
        parallel = engine_cls().run(small_graph, pattern, workers=2)
        assert parallel == serial


def test_process_pool_reused_across_patterns(small_graph):
    engine = PeregrineEngine()
    with ProcessShardExecutor(2) as executor:
        for pattern in QUERIES:
            got = engine.run(small_graph, pattern, executor=executor)
            assert got == engine_count_reference(small_graph, pattern)


def engine_count_reference(graph, pattern):
    return PeregrineEngine().count(graph, pattern)


def test_determinism_process_matchlist(small_graph):
    """Two identical workers=4 runs are byte-identical, and == serial."""

    def run_once():
        return PeregrineEngine().run(
            small_graph, TRIANGLE, MatchListAggregation(), workers=4
        )

    first, second = run_once(), run_once()
    serial = PeregrineEngine().run(small_graph, TRIANGLE, MatchListAggregation())
    assert pickle.dumps(first) == pickle.dumps(second)
    assert pickle.dumps(first) == pickle.dumps(serial)


# -- early termination across shards ----------------------------------------


class TestEarlyTermination:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_existence_parallel_correct_and_stats_consistent(
        self, engine_cls, small_graph
    ):
        engine = engine_cls()
        found = engine.run(
            small_graph, TRIANGLE, ExistenceAggregation(), workers=4,
            executor="serial",
        )
        assert found is True
        engine.stats.validate()
        assert engine.stats.other_seconds >= 0.0

    def test_existence_parallel_negative(self):
        # A path has no triangles: every shard runs to completion.
        graph = DataGraph(12, [(v, v + 1) for v in range(11)], name="path")
        engine = PeregrineEngine()
        found = engine.run(
            graph, TRIANGLE, ExistenceAggregation(), workers=4, executor="serial"
        )
        assert found is False
        engine.stats.validate()

    def test_existence_process_pool(self, small_graph):
        found = PeregrineEngine().run(
            small_graph, TRIANGLE, ExistenceAggregation(), workers=2
        )
        assert found is True

    def test_cancel_flag_skips_remaining_shards(self, small_graph):
        """Once a shard saturates, unstarted shards return the zero."""
        executor = SerialShardExecutor(4)
        engine = PeregrineEngine()
        shards = shard_by_degree_prefix(small_graph, 8)
        results = executor.map_shards(
            engine, small_graph, TRIANGLE, ExistenceAggregation(), shards
        )
        assert len(results) == len(shards)
        values = [value for value, _stats in results]
        assert any(values)
        # Everything after the saturating shard was skipped entirely.
        saturated = values.index(True)
        assert all(v is False for v in values[saturated + 1 :])
        skipped_stats = [stats for _value, stats in results[saturated + 1 :]]
        assert all(s.total_seconds == 0.0 for s in skipped_stats)

    def test_cancel_flag_api(self):
        flag = CancelFlag()
        assert not flag.is_set()
        flag.set()
        assert flag.is_set()


# -- stats merging ----------------------------------------------------------


class TestEngineStatsMerge:
    def _busy_stats(self) -> EngineStats:
        stats = EngineStats()
        stats.matches = 7
        stats.materialized = 21
        stats.udf_calls = 3
        stats.udf_seconds = 0.25
        stats.filter_calls = 2
        stats.filter_seconds = 0.125
        stats.setops.intersections = 5
        stats.setops.seconds = 0.5
        stats.predictor.branches = 40
        stats.predictor.misses = 4
        stats.total_seconds = 1.5
        stats.patterns_matched = 1
        return stats

    def test_merge_identity(self):
        """zero.merge(x) reproduces x exactly (the shard-merge base case)."""
        target = EngineStats()
        source = self._busy_stats()
        target.merge(source)
        assert target.matches == source.matches
        assert target.materialized == source.materialized
        assert target.udf_calls == source.udf_calls
        assert target.udf_seconds == source.udf_seconds
        assert target.filter_calls == source.filter_calls
        assert target.filter_seconds == source.filter_seconds
        assert target.setops.intersections == source.setops.intersections
        assert target.setops.seconds == source.setops.seconds
        assert target.predictor.branches == source.predictor.branches
        assert target.predictor.misses == source.predictor.misses
        assert target.total_seconds == source.total_seconds
        assert target.patterns_matched == source.patterns_matched
        assert target.other_seconds == source.other_seconds

    def test_merge_adds(self):
        a, b = self._busy_stats(), self._busy_stats()
        a.merge(b)
        assert a.matches == 14
        assert a.total_seconds == pytest.approx(3.0)
        assert a.section_seconds == pytest.approx(1.75)

    def test_other_seconds_clamps_negative_residual(self):
        stats = EngineStats()
        stats.total_seconds = 0.1
        stats.udf_seconds = 0.5  # sections exceed wall time: a timer bug
        assert stats.other_seconds == 0.0

    def test_validate_rejects_overcounted_sections(self):
        stats = EngineStats()
        stats.total_seconds = 0.1
        stats.udf_seconds = 0.5
        with pytest.raises(AssertionError, match="exceed total wall time"):
            stats.validate()

    def test_validate_allows_timer_noise(self):
        stats = EngineStats()
        stats.total_seconds = 1.0
        stats.udf_seconds = 1.0 + 1e-9  # within _TIMER_SLACK
        stats.validate()

    def test_strict_mode_catches_bad_shard_stats(self, monkeypatch):
        monkeypatch.setattr(base, "STRICT_STATS", True)
        bad = EngineStats()
        bad.total_seconds = 0.1
        bad.udf_seconds = 0.5
        with pytest.raises(AssertionError):
            EngineStats().merge(bad)

    def test_non_strict_mode_clamps_silently(self, monkeypatch):
        monkeypatch.setattr(base, "STRICT_STATS", False)
        bad = EngineStats()
        bad.total_seconds = 0.1
        bad.udf_seconds = 0.5
        merged = EngineStats()
        merged.merge(bad)  # no raise
        assert merged.other_seconds == 0.0

    def test_explicit_strict_overrides_module_flag(self, monkeypatch):
        monkeypatch.setattr(base, "STRICT_STATS", False)
        bad = EngineStats()
        bad.total_seconds = 0.1
        bad.udf_seconds = 0.5
        with pytest.raises(AssertionError):
            EngineStats().merge(bad, strict=True)


# -- executor plumbing ------------------------------------------------------


class TestExecutorResolution:
    def test_serial_for_one_worker(self):
        assert isinstance(make_executor(1), SerialShardExecutor)

    def test_process_for_many_workers(self):
        executor = make_executor(4)
        assert isinstance(executor, ProcessShardExecutor)
        executor.close()

    def test_serial_spec(self):
        executor = make_executor(4, "serial")
        assert isinstance(executor, SerialShardExecutor)
        assert executor.workers == 4

    def test_instance_passthrough(self):
        instance = SerialShardExecutor(2)
        assert make_executor(8, instance) is instance

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor(2, "threads")

    def test_process_executor_needs_two_workers(self):
        with pytest.raises(ValueError):
            ProcessShardExecutor(1)

    def test_default_shard_count_oversubscribes(self, small_graph):
        assert default_shard_count(4, small_graph) == 16
        tiny = DataGraph(3, [(0, 1)], name="t")
        assert default_shard_count(4, tiny) == 3  # capped at |V|
        assert default_shard_count(1, small_graph) == 4


# -- fluent API / serial-default guarantees ---------------------------------


def test_engine_run_default_is_serial(small_graph):
    engine = PeregrineEngine()
    assert engine.run(small_graph, TRIANGLE) == engine_count_reference(
        small_graph, TRIANGLE
    )


def test_program_parallel_fluent(small_graph):
    from repro.apps.programs import PatternProgram

    serial = PatternProgram.on(small_graph).match(QUERIES).count()
    parallel = (
        PatternProgram.on(small_graph)
        .match(QUERIES)
        .parallel(4, executor="serial")
        .count()
    )
    assert parallel == serial
