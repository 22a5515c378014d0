"""Degradation paths of the process-pool transport, and the shared-memory
leak probe.

``ProcessShardExecutor`` promises to *degrade, never die*: a pool that
cannot be built (restricted sandboxes) or a warm-up that fails falls
back, for good, to in-process sharded execution with one
``RuntimeWarning`` — identical results, no processes. Separately, every
shared-memory segment the transport exports must be disposed on every
exit path; ``assert_no_leaked_segments`` is the probe (wired into an
autouse fixture in ``conftest.py``) that fails any test leaving a
segment behind.
"""

from __future__ import annotations

import pickle
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.aggregation import CountAggregation
from repro.core.atlas import TRIANGLE
from repro.engines.execution import (
    ProcessShardExecutor,
    SerialShardExecutor,
    SharedGraphPayload,
    assert_no_leaked_segments,
    live_shared_segments,
    run_sharded,
    shard_by_degree_prefix,
)
from repro.engines.peregrine.engine import PeregrineEngine
from repro.engines.recovery import RunControl, map_shards
from repro.errors import SharedMemoryLeakError


def _count(engine, graph, executor):
    return run_sharded(engine, graph, TRIANGLE, CountAggregation(), executor)


class TestPoolDegradation:
    def test_broken_pool_falls_back_to_serial(self, small_graph):
        """A pool that breaks on contact degrades to in-process sharding —
        same results, and the fallback sticks for later calls."""
        engine = PeregrineEngine()
        oracle = _count(PeregrineEngine(), small_graph, SerialShardExecutor(2))
        executor = ProcessShardExecutor(workers=2)
        executor._ensure_pool = _raise_broken  # pool collapses on contact
        try:
            with pytest.warns(RuntimeWarning, match="falling back"):
                value = _count(engine, small_graph, executor)
            assert value == oracle
            assert isinstance(executor._fallback, SerialShardExecutor)
            # Subsequent calls go straight to the fallback, no new warning.
            assert _count(engine, small_graph, executor) == oracle
        finally:
            executor.close()

    def test_prepare_failure_warns_and_degrades(self, small_graph):
        engine = PeregrineEngine()
        executor = ProcessShardExecutor(workers=2)
        executor._ensure_pool = _raise_os_error
        try:
            # prepare() degrades instead of raising — the one fallback,
            # with the one warning — and execution completes in-process.
            with pytest.warns(RuntimeWarning, match="falling back"):
                executor.prepare(engine, small_graph)
            assert isinstance(executor._fallback, SerialShardExecutor)
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
        executor = ProcessShardExecutor(workers=2)
        executor._ensure_pool = _raise_broken
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


def _raise_broken(*_a, **_k):
    raise BrokenProcessPool("injected: pool cannot start")


def _raise_os_error(*_a, **_k):
    raise OSError("injected: fork refused")


class TestLeakProbe:
    def test_payload_context_manager_disposes(self, small_graph):
        with SharedGraphPayload.export(small_graph) as payload:
            assert payload._shm.name in live_shared_segments()
        assert not live_shared_segments()

    def test_dispose_idempotent_and_unregisters(self, small_graph):
        payload = SharedGraphPayload.export(small_graph)
        assert live_shared_segments()
        payload.dispose()
        payload.dispose()
        assert not live_shared_segments()
        assert_no_leaked_segments()  # clean: no raise

    def test_leak_is_detected_then_reclaimed(self, small_graph):
        payload = SharedGraphPayload.export(small_graph)
        name = payload._shm.name
        with pytest.raises(SharedMemoryLeakError) as info:
            assert_no_leaked_segments()
        assert name in info.value.segments
        # The probe reclaims what it reports, so one leak cannot cascade
        # into every later test failing.
        assert not live_shared_segments()
        assert_no_leaked_segments()
        payload.dispose()  # safe after reclaim

    def test_executor_close_leaves_no_segments(self, small_graph):
        engine = PeregrineEngine()
        executor = ProcessShardExecutor(workers=2)
        try:
            executor._ensure_pool(engine, small_graph)
        finally:
            executor.close()
        assert not live_shared_segments()

    def test_finalizer_reclaims_dropped_payload(self, small_graph):
        import gc

        payload = SharedGraphPayload.export(small_graph)
        name = payload._shm.name
        del payload
        gc.collect()
        assert name not in live_shared_segments()
