"""Tests for the resident mining service (:mod:`repro.serve`).

Four layers, innermost first: the tagged wire encoding round-trips
every aggregation value type exactly; the scheduler's admission
verdicts and priority ordering are deterministic (injectable clock, no
threads); the server's dict-level protocol serves cached results
byte-identical to cold ones and reports plan-cache hits on warm
repeats; and the full socket stack answers concurrent multi-client
query mixes identically to the serial in-process oracle, then shuts
down without leaking a shared-memory segment (the suite-wide autouse
probe enforces that part).
"""

from __future__ import annotations

import io
import json
import socket
import threading

import pytest

import repro
from repro.core.atlas import TRIANGLE, motif_patterns
from repro.engines.peregrine.engine import PeregrineEngine
from repro.morph.session import MorphingSession
from repro.options import RunOptions
from repro.serve import protocol
from repro.serve import (
    AdmissionPolicy,
    Client,
    GraphRegistry,
    MiningServer,
    Query,
    QueryScheduler,
    connect,
    decode_value,
    encode_value,
)


def tri_text() -> str:
    return repro.format_pattern(TRIANGLE)


class TestWireFraming:
    """One message = one segment: no Nagle/delayed-ACK stall on a reused
    connection. Asserted structurally, never by timing."""

    def test_a_message_is_exactly_one_write(self):
        class Recorder:
            def __init__(self):
                self.writes, self.flushes = [], 0

            def write(self, data):
                self.writes.append(bytes(data))

            def flush(self):
                self.flushes += 1

        stream = Recorder()
        message = {"op": "run", "patterns": ["a-b", "b-c"], "n": 3}
        protocol.write_message(stream, message)
        assert len(stream.writes) == 1 and stream.flushes == 1
        (frame,) = stream.writes
        assert frame.endswith(b"\n") and frame.count(b"\n") == 1
        assert protocol.read_message(io.BytesIO(frame)) == message

    def test_accepted_sockets_disable_nagle(self, small_graph, monkeypatch):
        from repro.serve import server as server_module

        nodelay = []
        original_setup = server_module._Handler.setup

        def recording_setup(handler):
            original_setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(server_module._Handler, "setup", recording_setup)
        registry = GraphRegistry(share=False)
        registry.add("small", small_graph)
        with MiningServer(registry=registry) as server:
            server.start()
            assert connect(port=server.port).ping()
        assert nodelay and all(nodelay)


class TestProtocolEncoding:
    @pytest.mark.parametrize(
        "value",
        [
            0,
            308,
            True,
            False,
            None,
            3.5,
            "text",
            [(0, 1, 2), (3, 4, 5)],                      # match list
            (frozenset({1, 2}), frozenset({3}), frozenset()),  # MNI table
            {"nested": [1, (2, 3)]},
        ],
    )
    def test_round_trip_is_exact(self, value):
        decoded = decode_value(json.loads(json.dumps(encode_value(value))))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_types_distinguished(self):
        """Tuples, lists and frozensets survive as themselves."""
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert decode_value(encode_value([1, 2])) == [1, 2]
        assert isinstance(decode_value(encode_value(frozenset({1}))), frozenset)
        assert isinstance(decode_value(encode_value({1})), set)

    def test_encoding_is_construction_order_independent(self):
        """frozenset iteration order varies; the encoding must not."""
        a = frozenset([5, 1, 9, 3])
        b = frozenset([9, 3, 5, 1])
        assert json.dumps(encode_value(a)) == json.dumps(encode_value(b))

    def test_malformed_tag_rejected(self):
        with pytest.raises(ValueError):
            decode_value({"t": "mystery", "v": []})
        with pytest.raises(ValueError):
            decode_value({"untagged": "dict"})

    def test_unencodable_object_rejected(self):
        with pytest.raises(TypeError):
            encode_value(object())


class TestGraphRegistry:
    def test_add_get_describe(self, small_graph):
        with GraphRegistry(share=False) as registry:
            registry.add("g", small_graph)
            assert registry.get("g").graph is small_graph
            (row,) = registry.describe()
            assert row["name"] == "g"
            assert row["vertices"] == small_graph.num_vertices
            assert row["shared"] is False

    def test_add_is_idempotent(self, small_graph):
        with GraphRegistry(share=False) as registry:
            first = registry.add("g", small_graph)
            assert registry.add("g", small_graph) is first
            assert len(registry) == 1

    def test_missing_graph_raises(self):
        with GraphRegistry(share=False) as registry:
            with pytest.raises(KeyError, match="not resident"):
                registry.get("nope")

    def test_unknown_name_raises(self):
        with GraphRegistry(share=False) as registry:
            with pytest.raises(KeyError, match="unknown graph"):
                registry.load("no-such-dataset-or-path")

    def test_load_dataset_and_dispose_segments(self):
        registry = GraphRegistry()
        resident = registry.load("mico")
        assert registry.load("MI") is not resident  # code vs name differ as keys
        registry.close()
        # autouse leak probe verifies the segments are gone


class FakeClock:
    """Deterministic monotonic clock for deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestScheduler:
    def test_priority_ordering_fifo_within_level(self):
        scheduler = QueryScheduler()
        queries = [
            Query({"tag": "low"}, priority=0),
            Query({"tag": "high"}, priority=5),
            Query({"tag": "mid"}, priority=1),
            Query({"tag": "high2"}, priority=5),
        ]
        for query in queries:
            assert scheduler.submit(query) == "accepted"
        order = [scheduler.next_query().request["tag"] for _ in range(4)]
        assert order == ["high", "high2", "mid", "low"]

    def test_queue_full_rejection(self):
        scheduler = QueryScheduler(policy=AdmissionPolicy(max_queue_depth=2))
        assert scheduler.submit(Query({})) == "accepted"
        assert scheduler.submit(Query({})) == "accepted"
        assert scheduler.submit(Query({})) == "rejected:queue-full"
        assert scheduler.metrics.value("serve.admission.rejected.queue-full") == 1

    def test_per_client_limit(self):
        scheduler = QueryScheduler(policy=AdmissionPolicy(max_per_client=2))
        assert scheduler.submit(Query({}, client="a")) == "accepted"
        assert scheduler.submit(Query({}, client="a")) == "accepted"
        assert scheduler.submit(Query({}, client="a")) == "rejected:client-limit"
        assert scheduler.submit(Query({}, client="b")) == "accepted"

    def test_inflight_released_after_run(self):
        scheduler = QueryScheduler(policy=AdmissionPolicy(max_per_client=1))
        query = Query({}, client="a")
        assert scheduler.submit(query) == "accepted"
        assert scheduler.submit(Query({}, client="a")) == "rejected:client-limit"
        assert scheduler.run_next(lambda q: {"ok": True})
        assert scheduler.inflight("a") == 0
        assert scheduler.submit(Query({}, client="a")) == "accepted"

    def test_deadline_infeasible_at_submit_rejected(self):
        clock = FakeClock()
        scheduler = QueryScheduler(
            policy=AdmissionPolicy(estimated_service_seconds=1.0), clock=clock
        )
        for _ in range(3):
            assert scheduler.submit(Query({})) == "accepted"
        # 3 queued × ~1s each, but only 2s of deadline headroom: reject.
        hopeless = Query({}, deadline=scheduler.make_deadline(2.0))
        assert scheduler.submit(hopeless) == "rejected:deadline"
        feasible = Query({}, deadline=scheduler.make_deadline(10.0))
        assert scheduler.submit(feasible) == "accepted"

    def test_deadline_expired_while_queued_never_runs(self):
        clock = FakeClock()
        scheduler = QueryScheduler(clock=clock)
        query = Query({}, deadline=scheduler.make_deadline(1.0))
        assert scheduler.submit(query) == "accepted"
        clock.advance(2.0)
        executed = []
        assert not scheduler.run_next(lambda q: executed.append(q) or {"ok": True})
        assert executed == []
        assert query.response == {
            "ok": False,
            "error": "rejected:deadline",
            "admission": "rejected:deadline",
        }

    def test_execute_exception_becomes_error_response(self):
        scheduler = QueryScheduler()
        query = Query({})
        scheduler.submit(query)

        def boom(_query):
            raise RuntimeError("kaput")

        assert scheduler.run_next(boom)
        assert query.response == {"ok": False, "error": "RuntimeError: kaput"}

    def test_close_rejects_pending(self):
        scheduler = QueryScheduler()
        query = Query({})
        scheduler.submit(query)
        scheduler.close()
        assert query.response == {"ok": False, "error": "scheduler closed"}
        assert scheduler.depth == 0

    def test_depth_gauge_tracks_queue(self):
        scheduler = QueryScheduler()
        scheduler.submit(Query({}))
        scheduler.submit(Query({}))
        assert scheduler.metrics.value("serve.queue.depth") == 2
        scheduler.run_next(lambda q: {"ok": True})
        assert scheduler.metrics.value("serve.queue.depth") == 1


@pytest.fixture()
def server(small_graph):
    """Threadless dict-level server over ``small_graph`` (no sockets)."""
    registry = GraphRegistry(share=False)
    registry.add("small", small_graph)
    server = MiningServer(registry=registry)
    yield server
    server.close()


class TestServerProtocol:
    def test_ping_and_unknown_op(self, server):
        assert server.handle({"op": "ping"}) == {"ok": True, "pong": True}
        response = server.handle({"op": "transmogrify"})
        assert not response["ok"] and "unknown op" in response["error"]

    def test_run_counts_match_inprocess(self, server, small_graph):
        response = server.handle(
            {"op": "run", "graph": "small", "patterns": [tri_text()]}
        )
        assert response["ok"] and not response["cached"]
        oracle = repro.run(small_graph, [TRIANGLE])
        assert response["results"][tri_text()] == oracle.results[TRIANGLE]

    def test_unknown_graph_is_an_error_not_a_crash(self, server):
        response = server.handle(
            {"op": "run", "graph": "nope", "patterns": [tri_text()]}
        )
        assert not response["ok"] and "not resident" in response["error"]

    def test_bad_options_rejected_loudly(self, server):
        response = server.handle(
            {
                "op": "run",
                "graph": "small",
                "patterns": [tri_text()],
                "options": {"strategy": "greedy"},
            }
        )
        assert not response["ok"] and "unknown strategy" in response["error"]

    def test_result_cache_hit_is_byte_identical(self, server):
        request = {"op": "run", "graph": "small", "patterns": [tri_text()]}
        cold = server.handle(dict(request))
        warm = server.handle(dict(request))
        assert not cold["cached"] and warm["cached"]
        # Each submission gets its own daemon-minted id, even on a hit.
        assert cold["query_id"] != warm["query_id"]
        strip = lambda r: {
            k: v for k, v in r.items() if k not in ("cached", "query_id")
        }
        assert json.dumps(strip(warm), sort_keys=True) == json.dumps(
            strip(cold), sort_keys=True
        )
        assert server.metrics.value("serve.result_cache.hits") == 1

    def test_warm_repeat_hits_plan_cache(self, server):
        request = {
            "op": "run",
            "graph": "small",
            "patterns": [tri_text()],
            "use_result_cache": False,
        }
        cold = server.handle(dict(request))
        warm = server.handle(dict(request))
        assert cold["metrics"] == {"plan.cache.miss": 1}
        assert warm["metrics"] == {"plan.cache.hit": 1}
        assert warm["results"] == cold["results"]

    def test_cache_key_separates_options(self, server):
        base = {"op": "run", "graph": "small", "patterns": [tri_text()]}
        server.handle(dict(base))
        different = server.handle(
            {**base, "options": {"aggregation": "exists"}}
        )
        assert not different["cached"]
        assert different["results"][tri_text()] is True

    def test_stats_surface(self, server):
        server.handle({"op": "run", "graph": "small", "patterns": [tri_text()]})
        stats = server.handle({"op": "stats"})
        assert stats["ok"]
        assert stats["metrics"]["serve.queries"] == 1
        assert stats["metrics"]["serve.admission.accepted"] == 1
        assert stats["graphs"] == ["small"]
        assert stats["scheduler"]["depth"] == 0

    @pytest.mark.parametrize("aggregation", ["count", "mni", "matches", "exists"])
    def test_typed_results_round_trip(self, server, small_graph, aggregation):
        response = server.handle(
            {
                "op": "run",
                "graph": "small",
                "patterns": [tri_text()],
                "options": {"aggregation": aggregation},
            }
        )
        assert response["ok"]
        remote = decode_value(response["results"][tri_text()])
        oracle = repro.run(
            small_graph, [TRIANGLE], options=RunOptions(aggregation=aggregation)
        )
        assert remote == oracle.results[TRIANGLE]


class TestBoundedCaches:
    """The result cache and the idempotency map share one FIFO bound."""

    def test_result_cache_evicts_oldest_and_counts_it(self, server, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "_RESULT_CACHE_CAPACITY", 3)
        texts = [repro.format_pattern(p) for p in motif_patterns(4)][:5]
        for text in texts:
            assert server.handle({"op": "run", "graph": "small", "patterns": [text]})["ok"]
        stats = server.handle({"op": "stats"})
        assert stats["result_cache_entries"] == 3
        assert stats["result_cache_evictions"] == 2
        assert stats["metrics"]["serve.result_cache.evictions"] == 2
        protocol.validate_stats(stats)
        # FIFO: the two oldest were dropped, the three newest still hit.
        cached = [
            server.handle({"op": "run", "graph": "small", "patterns": [text]})["cached"]
            for text in reversed(texts)
        ]
        assert cached[:3] == [True, True, True] and cached[3] is False

    def test_idempotency_map_uses_the_same_rule(self, server, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "_IDEMPOTENCY_CAPACITY", 2)
        request = {"op": "run", "graph": "small", "patterns": [tri_text()]}
        for key in ("k1", "k2", "k3"):
            assert server.handle({**request, "idempotency_key": key})["ok"]
        stats = server.handle({"op": "stats"})
        assert stats["service"]["idempotency_entries"] == 2
        server.handle({**request, "idempotency_key": "k3"})
        server.handle({**request, "idempotency_key": "k1"})  # evicted: runs again
        assert server.metrics.value("serve.idempotent.replays") == 1

    def test_sixteen_warm_queries_all_hit(self, server):
        """The ``serve-hit`` shape: 16 distinct warmed queries, then
        every op is a result-cache hit and nothing is evicted."""
        texts = [repro.format_pattern(p) for p in motif_patterns(4)]
        texts += [repro.format_pattern(p) for p in motif_patterns(3)]
        requests = [
            {"op": "run", "graph": "small", "patterns": [t], "options": {"morph": m}}
            for t in texts
            for m in (True, False)
        ]
        assert len(requests) == 16
        assert not any(server.handle(dict(r))["cached"] for r in requests)
        for _ in range(3):
            assert all(server.handle(dict(r))["cached"] for r in requests)
        stats = server.handle({"op": "stats"})
        assert stats["metrics"]["serve.result_cache.hits"] == 48
        assert stats["result_cache_evictions"] == 0


class _LockCheckedDict(dict):
    """Records, for every whole-map read, whether ``lock`` was held."""

    def __init__(self, data, lock) -> None:
        super().__init__(data)
        self.lock = lock
        self.reads: list[bool] = []

    def __iter__(self):
        self.reads.append(self.lock.locked())
        return super().__iter__()

    def keys(self):
        self.reads.append(self.lock.locked())
        return super().keys()


class TestDrainSnapshot:
    """``drain`` copies the result cache under the handlers' lock."""

    @staticmethod
    def _warm_server(small_graph, tmp_path) -> MiningServer:
        registry = GraphRegistry(share=False)
        registry.add("small", small_graph)
        server = MiningServer(
            registry=registry,
            workers=0,
            state_path=str(tmp_path / "state.jsonl"),
            drain_deadline_s=2.0,
        )
        warm = server.handle({"op": "run", "graph": "small", "patterns": [tri_text()]})
        assert warm["ok"]
        return server

    def test_the_copy_is_taken_under_the_lock(self, small_graph, tmp_path):
        server = self._warm_server(small_graph, tmp_path)
        checked = _LockCheckedDict(server._result_cache, server._lock)
        server._result_cache = checked
        server.drain(dump_dir=str(tmp_path / "flight"))
        assert checked.reads and all(checked.reads)

    def test_concurrent_writers_never_break_the_save(self, small_graph, tmp_path):
        import sys

        from repro.serve import load_service_state
        from repro.serve import server as server_module

        server = self._warm_server(small_graph, tmp_path)
        ((key, entry),) = server._result_cache.items()
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer(name: str) -> None:
            # Grow and shrink the map under the lock, as the handlers'
            # inserts and evictions do, without evicting the warm entry.
            i = 0
            try:
                while not stop.is_set():
                    extra = (f"{name}-{i}", *key[1:])
                    with server._lock:
                        server_module._put_bounded(
                            server._result_cache,
                            extra,
                            entry,
                            server_module._RESULT_CACHE_CAPACITY,
                        )
                    with server._lock:
                        server._result_cache.pop(extra)
                    i += 1
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        # More writers than cores, switching threads as often as possible.
        threads = [
            threading.Thread(target=writer, args=(f"writer{n}",)) for n in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            summary = server.drain(dump_dir=str(tmp_path / "flight"))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert summary["state"] == "closed"
        state = load_service_state(str(tmp_path / "state.jsonl"))
        assert state.skipped == 0
        assert state.graphs == ["small"]
        assert state.results[key] == entry
        assert all(saved == entry for saved in state.results.values())
        assert len(state.results) == summary["state_entries"] - 1


class TestEngineSharingContract:
    def test_fresh_rejects_instances(self):
        with pytest.raises(TypeError, match="fresh engine"):
            repro.resolve_engine(PeregrineEngine(), fresh=True)

    def test_busy_instance_rejected(self):
        engine = PeregrineEngine()
        engine.busy = True
        with pytest.raises(ValueError, match="mid-run"):
            repro.resolve_engine(engine)

    def test_session_marks_engine_busy_and_clears(self, small_graph):
        engine = PeregrineEngine()
        session = MorphingSession(engine)
        assert engine.busy is False
        session.run(small_graph, [TRIANGLE])
        assert engine.busy is False  # cleared even though it was set mid-run

    def test_concurrent_session_reuse_raises(self, small_graph):
        engine = PeregrineEngine()
        engine.busy = True  # simulate another run in flight
        with pytest.raises(ValueError, match="mid-run"):
            MorphingSession(engine).run(small_graph, [TRIANGLE])
        engine.busy = False

    def test_busy_cleared_on_failure(self, small_graph):
        engine = PeregrineEngine()
        session = MorphingSession(engine)
        with pytest.raises(Exception):
            session.run(small_graph, ["not a pattern"])
        assert engine.busy is False


class TestSocketStack:
    def test_connect_run_and_shutdown(self, small_graph):
        registry = GraphRegistry(share=False)
        registry.add("small", small_graph)
        with MiningServer(registry=registry, workers=2) as server:
            client = connect(port=server.port)
            result = client.run("small", TRIANGLE)
            oracle = repro.run(small_graph, [TRIANGLE])
            assert result.results[TRIANGLE] == oracle.results[TRIANGLE]
            assert not result.partial

    def test_client_requires_bound_port(self):
        with pytest.raises(ValueError, match="port"):
            Client(port=0)

    def test_admission_rejection_surfaces_to_client(self, small_graph):
        registry = GraphRegistry(share=False)
        registry.add("small", small_graph)
        server = MiningServer(
            registry=registry,
            policy=AdmissionPolicy(max_queue_depth=8, max_per_client=1),
            workers=0,  # nothing drains the queue behind the test's back
        )
        try:
            # Fill the per-client budget; with workers=0 it stays queued.
            blocker = Query({}, client="greedy")
            assert server.scheduler.submit(blocker) == "accepted"
            server.start()
            client = connect(port=server.port, client_id="greedy")
            with pytest.raises(RuntimeError, match="rejected:client-limit"):
                client.run("small", TRIANGLE)
        finally:
            server.close()

    def test_concurrent_clients_match_serial_oracle(self, small_graph):
        patterns = list(motif_patterns(3))
        workload = [
            ("peregrine", "count"),
            ("autozero", "count"),
            ("bigjoin", "exists"),
            ("peregrine", "mni"),
            ("autozero", "matches"),
            ("peregrine", "exists"),
        ]
        oracle = {
            spec: repro.run(
                small_graph,
                patterns,
                options=RunOptions(engine=spec[0], aggregation=spec[1]),
            ).results
            for spec in set(workload)
        }
        registry = GraphRegistry(share=False)
        registry.add("small", small_graph)
        failures = []
        with MiningServer(registry=registry, workers=3) as server:
            def one_client(index, spec):
                try:
                    client = Client(port=server.port, client_id=f"c{index}")
                    options = RunOptions(engine=spec[0], aggregation=spec[1])
                    result = client.run("small", patterns, options=options)
                    if result.results != oracle[spec]:
                        failures.append((spec, "results diverged from oracle"))
                except Exception as exc:  # noqa: BLE001 - collected below
                    failures.append((spec, repr(exc)))

            threads = [
                threading.Thread(target=one_client, args=(i, spec))
                for i, spec in enumerate(workload)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stats = server.handle({"op": "stats"})
        assert not failures, failures
        assert stats["metrics"]["serve.admission.accepted"] == len(workload)

    def test_repeat_queries_cached_across_clients(self, small_graph):
        registry = GraphRegistry(share=False)
        registry.add("small", small_graph)
        with MiningServer(registry=registry, workers=2) as server:
            first = connect(port=server.port, client_id="a").run("small", TRIANGLE)
            second = connect(port=server.port, client_id="b").run("small", TRIANGLE)
            assert not first.cached and second.cached
            assert first.results == second.results

    def test_load_on_demand_over_socket(self):
        with MiningServer(registry=GraphRegistry(share=False)) as server:
            server.start()
            client = connect(port=server.port)
            description = client.load("mico")
            assert description["name"] == "mico"
            assert any(row["name"] == "mico" for row in client.graphs())
            result = client.run("mico", TRIANGLE)
            assert result.results[TRIANGLE] > 0
