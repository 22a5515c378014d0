"""Degradation path of the thread transport.

``ThreadShardExecutor`` promises to *degrade, never die*: a pool that
cannot start a thread (a process at its thread or pid limit) falls
back, for good, to inline sharded execution with one
``RuntimeWarning`` — identical results, no threads.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.aggregation import CountAggregation
from repro.core.atlas import TRIANGLE
from repro.engines.execution import (
    SerialShardExecutor,
    ThreadShardExecutor,
    run_sharded,
    shard_by_degree_prefix,
)
from repro.engines.peregrine.engine import PeregrineEngine
from repro.engines.recovery import RunControl, map_shards


def _count(engine, graph, executor):
    return run_sharded(engine, graph, TRIANGLE, CountAggregation(), executor)


class TestPoolDegradation:
    def test_broken_pool_falls_back_to_serial(self, small_graph):
        """A pool that cannot start a thread degrades to inline sharding —
        same results, and the fallback sticks for later calls."""
        engine = PeregrineEngine()
        oracle = _count(PeregrineEngine(), small_graph, SerialShardExecutor(2))
        executor = ThreadShardExecutor(workers=2)
        executor._ensure_pool = _raise_no_thread  # no thread can start
        try:
            with pytest.warns(RuntimeWarning, match="falling back"):
                value = _count(engine, small_graph, executor)
            assert value == oracle
            assert executor._degraded and executor._pool is None
            # Subsequent calls go straight to the fallback, no new warning.
            assert _count(engine, small_graph, executor) == oracle
        finally:
            executor.close()

    def test_prepare_failure_warns_and_degrades(self, small_graph):
        engine = PeregrineEngine()
        executor = ThreadShardExecutor(workers=2)
        executor._ensure_pool = _raise_no_thread
        try:
            # prepare() degrades instead of raising — the one fallback,
            # with the one warning — and execution completes in-process.
            with pytest.warns(RuntimeWarning, match="falling back"):
                executor.prepare(engine, small_graph)
            assert executor._degraded
            value = _count(engine, small_graph, executor)
            assert value == _count(
                PeregrineEngine(), small_graph, SerialShardExecutor(2)
            )
        finally:
            executor.close()

    def test_recovering_path_survives_unbuildable_pool(self, small_graph):
        """The mapping loop, driven directly, hits the same degradation: a
        pool that cannot be built demotes the whole run to in-process
        sharding."""
        engine = PeregrineEngine()
        shards = shard_by_degree_prefix(small_graph, 4)
        serial = map_shards(
            SerialShardExecutor(2),
            engine,
            small_graph,
            TRIANGLE,
            CountAggregation(),
            shards,
            control=RunControl(),
        )
        expected = [serial[i][0] for i in sorted(serial)]
        executor = ThreadShardExecutor(workers=2)
        executor._ensure_pool = _raise_no_thread
        control = RunControl()
        try:
            with pytest.warns(RuntimeWarning, match="falling back"):
                results = map_shards(
                    executor,
                    engine,
                    small_graph,
                    TRIANGLE,
                    CountAggregation(),
                    shards,
                    control=control,
                )
            assert control.reports[-1].complete
            values = [results[i][0] for i in sorted(results)]
            assert pickle.dumps(values) == pickle.dumps(expected)
        finally:
            executor.close()


def _raise_no_thread(*_a, **_k):
    raise RuntimeError("can't start new thread")
