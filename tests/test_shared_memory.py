"""Zero-copy shared-memory graph transport tests.

The acceptance bar for the transport is *attach, don't copy*: a pool
worker's graph must be a window onto the parent's CSR arrays, not a
pickled replica. The tests prove it two ways — by writing through the
parent's segment and watching the attached graph change, and by probing
a live worker process for how its graph arrived.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.aggregation import CountAggregation
from repro.core.atlas import TRIANGLE
from repro.engines import execution
from repro.engines.execution import (
    ProcessShardExecutor,
    SerialShardExecutor,
    SharedGraphPayload,
    _init_shard_worker,
    _probe_worker_graph,
    export_graph,
    run_sharded,
)
from repro.engines.peregrine.engine import PeregrineEngine
from repro.graph.datagraph import DataGraph


@pytest.fixture
def payload(small_graph):
    p = SharedGraphPayload.export(small_graph)
    yield p
    p.dispose()


class TestExportAttach:
    def test_round_trip_structure(self, small_graph, payload):
        attached = payload.attach()
        assert attached.num_vertices == small_graph.num_vertices
        assert attached.num_edges == small_graph.num_edges
        assert attached.name == small_graph.name
        assert np.array_equal(attached.indptr, small_graph.indptr)
        assert np.array_equal(attached.indices, small_graph.indices)
        assert attached.indices.dtype == small_graph.indices.dtype

    def test_attached_graph_is_window_not_copy(self, small_graph, payload):
        """Mutating the parent's segment must show through the attached graph."""
        attached = payload.attach()
        offset, shape, dtype = payload.blocks["indices"]
        parent_view = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=payload._shm.buf, offset=offset
        )
        original = int(attached.indices[0])
        sentinel = original + 1
        parent_view[0] = sentinel
        assert int(attached.indices[0]) == sentinel, (
            "attached graph did not alias the shared segment"
        )
        parent_view[0] = original

    def test_attached_arrays_read_only(self, payload):
        attached = payload.attach()
        assert attached.csr_transport == "shared_memory"
        assert not attached.indices.flags.writeable
        assert not attached.indptr.flags.writeable
        with pytest.raises(ValueError):
            attached.indices[0] = 0

    def test_labels_ship_through_segment(self, small_labeled_graph):
        payload = SharedGraphPayload.export(small_labeled_graph)
        try:
            attached = payload.attach()
            assert "labels" in payload.blocks
            assert np.array_equal(attached.labels, small_labeled_graph.labels)
            assert not attached.labels.flags.writeable
        finally:
            payload.dispose()

    def test_cleaning_counters_survive(self):
        g = DataGraph(4, [(0, 1), (0, 1), (2, 2), (1, 3)])
        payload = SharedGraphPayload.export(g)
        try:
            attached = payload.attach()
            assert attached.num_dropped_self_loops == 1
            assert attached.num_duplicate_edges == 1
        finally:
            payload.dispose()

    def test_payload_pickles_small(self, small_graph, payload):
        """The handle ships metadata only — never the edge data."""
        blob = pickle.dumps(payload)
        assert len(blob) < 1024
        assert pickle.loads(blob)._shm is None

    def test_dispose_unlinks_segment(self, small_graph):
        payload = SharedGraphPayload.export(small_graph)
        payload.dispose()
        with pytest.raises(FileNotFoundError):
            payload.attach()
        payload.dispose()  # idempotent

    def test_export_graph_falls_back_to_none(self, small_graph, monkeypatch):
        monkeypatch.setattr(
            SharedGraphPayload,
            "export",
            classmethod(lambda cls, g: (_ for _ in ()).throw(OSError("no shm"))),
        )
        assert export_graph(small_graph) is None


class TestWorkerInitializer:
    @pytest.fixture(autouse=True)
    def _save_worker_state(self):
        saved = execution._WORKER_STATE
        yield
        execution._WORKER_STATE = saved

    def test_initializer_attaches_payload(self, small_graph, payload):
        _init_shard_worker(PeregrineEngine(), payload, None)
        probe = _probe_worker_graph()
        assert probe["transport"] == "shared_memory"
        assert not probe["indices_writeable"]
        assert probe["num_edges"] == small_graph.num_edges

    def test_initializer_accepts_plain_graph(self, small_graph):
        _init_shard_worker(PeregrineEngine(), small_graph, None)
        probe = _probe_worker_graph()
        assert probe["transport"] == "pickle"
        assert probe["num_edges"] == small_graph.num_edges


class TestProcessPoolTransport:
    def test_workers_attach_not_copy(self, small_graph):
        """Live pool workers must report the shared-memory transport."""
        engine = PeregrineEngine()
        executor = ProcessShardExecutor(workers=2)
        try:
            try:
                executor._ensure_pool(engine, small_graph)
            except OSError:
                pytest.skip("process pools unavailable in this sandbox")
            if executor._payload is None:
                pytest.skip("shared memory unavailable in this sandbox")
            probes = [
                executor._pool.submit(_probe_worker_graph).result(timeout=60)
                for _ in range(2)
            ]
            for probe in probes:
                assert probe["transport"] == "shared_memory"
                assert not probe["indices_writeable"]
                assert probe["num_edges"] == small_graph.num_edges
        finally:
            executor.close()

    def test_pool_results_match_serial(self, small_graph):
        engine = PeregrineEngine()
        aggregation = CountAggregation()
        with SerialShardExecutor(4) as serial:
            expected = run_sharded(
                engine, small_graph, TRIANGLE, aggregation, serial
            )
        with ProcessShardExecutor(workers=2) as pool:
            got = run_sharded(engine, small_graph, TRIANGLE, aggregation, pool)
        assert got == expected

    def test_pool_binding_follows_graph_content_not_identity(self, small_graph):
        """A caller-owned executor outlives runs; a freed graph's id is
        reused, so only the content fingerprint may decide the binding."""
        engine = PeregrineEngine()
        edges = small_graph.edge_array().tolist()
        twin = DataGraph(small_graph.num_vertices, edges, name="twin")
        edited = DataGraph(small_graph.num_vertices, edges[1:], name="edited")
        executor = ProcessShardExecutor(workers=2)
        try:
            try:
                executor._ensure_pool(engine, small_graph)
            except OSError:
                pytest.skip("process pools unavailable in this sandbox")
            pool = executor._pool
            executor._ensure_pool(engine, twin)
            assert executor._pool is pool
            executor._ensure_pool(engine, edited)
            assert executor._pool is not pool
            edited_pool = executor._pool
            executor._ensure_pool(PeregrineEngine(), edited)
            assert executor._pool is not edited_pool
        finally:
            executor.close()

    def test_close_disposes_segment(self, small_graph):
        engine = PeregrineEngine()
        executor = ProcessShardExecutor(workers=2)
        try:
            executor._ensure_pool(engine, small_graph)
        except OSError:
            pytest.skip("process pools unavailable in this sandbox")
        payload = executor._payload
        if payload is None:
            executor.close()
            pytest.skip("shared memory unavailable in this sandbox")
        executor.close()
        with pytest.raises(FileNotFoundError):
            payload.attach()
