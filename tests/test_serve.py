"""Tests for the resident mining service (:mod:`repro.serve`).

Four layers, innermost first: the tagged wire encoding round-trips
every aggregation value type exactly; the scheduler's admission
verdicts and priority ordering are deterministic (injectable clock, no
threads); the server's dict-level protocol serves cached results
byte-identical to cold ones and reports plan-cache hits on warm
repeats; and the full socket stack answers concurrent multi-client
query mixes identically to the serial in-process oracle, then shuts
down without leaking a shared-memory segment (the suite-wide autouse
probe enforces that part). On top of the socket stack: one persistent
connection per client thread, result-cache hits answered before
admission, and hypothesis-generated garbage on a live connection.
"""

from __future__ import annotations

import io
import json
import os
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

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


WEDGE = repro.parse_pattern("a-b-c")


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

    def test_bad_options_are_a_flight_anomaly(self, server):
        """Options are parsed once, at admission: a request they reject
        is retained like any query that died before its session."""
        errors = []
        for options in ({"wrkers": 2}, {"strategy": "x"}):
            response = server.handle(
                {
                    "op": "run",
                    "graph": "small",
                    "patterns": [tri_text()],
                    "options": options,
                }
            )
            assert not response["ok"]
            errors.append(response["error"])
        anomalies = server.flight.anomalies()
        assert [record.error for record in anomalies] == errors
        assert all(record.status == "error" for record in anomalies)
        assert [record.patterns for record in anomalies] == [[tri_text()]] * 2
        assert server.handle({"op": "stats"})["flight"]["anomalies"] == 2

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


@pytest.fixture()
def capped(small_graph, monkeypatch):
    """Build dict-level servers whose cache tiers keep ``store`` entries
    and whose idempotency map keeps ``idempotency``."""
    from repro.morph import cache as cache_module
    from repro.serve import server as server_module

    built = []

    def build(store: int = 4096, idempotency: int = 256) -> MiningServer:
        monkeypatch.setattr(cache_module, "STORE_CAPACITY", store)
        monkeypatch.setattr(server_module, "_IDEMPOTENCY_CAPACITY", idempotency)
        registry = GraphRegistry(share=False)
        registry.add("small", small_graph)
        built.append(MiningServer(registry=registry, workers=0))
        return built[-1]

    yield build
    for server in built:
        server.close()


class TestBoundedCaches:
    """Every cache tier of the daemon is one ``BoundedStore``: FIFO past
    its capacity, each eviction counted."""

    def test_result_cache_evicts_oldest_and_counts_it(self, capped):
        server = capped(store=3)
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

    def test_idempotency_map_uses_the_same_rule(self, capped):
        server = capped(idempotency=2)
        request = {"op": "run", "graph": "small", "patterns": [tri_text()]}
        for key in ("k1", "k2", "k3"):
            assert server.handle({**request, "idempotency_key": key})["ok"]
        stats = server.handle({"op": "stats"})
        assert stats["service"]["idempotency_entries"] == 2
        server.handle({**request, "idempotency_key": "k3"})
        server.handle({**request, "idempotency_key": "k1"})  # evicted: runs again
        assert server.metrics.value("serve.idempotent.replays") == 1

    def test_every_tier_stops_at_its_capacity(self, capped):
        """Eight distinct queries (each forced to morph, so it measures
        alternatives) through tiers of three: results, replays, plans and
        measurements all stop at three and count what they dropped."""
        server = capped(store=3, idempotency=3)
        texts = [repro.format_pattern(p) for p in motif_patterns(4)]
        texts += [repro.format_pattern(p) for p in motif_patterns(3)]
        assert len(set(texts)) == 8

        def run(text: str, **fields) -> dict:
            response = server.handle(
                {
                    "op": "run",
                    "graph": "small",
                    "patterns": [text],
                    "options": {"margin": 1e9},
                    **fields,
                }
            )
            assert response["ok"]
            return response

        first = [run(t, idempotency_key=f"k{i}") for i, t in enumerate(texts)]
        newest = run(texts[-1], use_result_cache=False)
        oldest = run(texts[0], use_result_cache=False)
        assert newest["metrics"] == {"plan.cache.hit": 1}
        assert oldest["metrics"] == {"plan.cache.miss": 1}
        assert newest["results"] == first[-1]["results"]
        assert oldest["results"] == first[0]["results"]

        stats = protocol.validate_stats(server.handle({"op": "stats"}))
        tiers = stats["caches"]
        assert sorted(tiers) == ["idempotency", "measurement", "plan", "result"]
        assert all(tier["entries"] <= 3 for tier in tiers.values())
        assert tiers["result"] == {"entries": 3, "evictions": 5}
        assert tiers["idempotency"] == {"entries": 3, "evictions": 5}
        # Nine plans searched (eight queries, the oldest twice).
        assert tiers["plan"] == {"entries": 3, "evictions": 6}
        assert tiers["measurement"]["entries"] == 3
        assert tiers["measurement"]["evictions"] > 0
        assert len(server.plan_cache) == len(server.measurement_cache) == 3
        assert stats["result_cache_entries"] == 3
        assert stats["result_cache_evictions"] == 5
        assert stats["service"]["idempotency_entries"] == 3

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
    """``drain`` copies the result cache under its store's lock."""

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
        store = server._result_cache
        checked = _LockCheckedDict(store._entries, store._lock)
        store._entries = checked
        server.drain(dump_dir=str(tmp_path / "flight"))
        assert checked.reads and all(checked.reads)

    def test_concurrent_writers_never_break_the_save(self, small_graph, tmp_path):
        import sys

        from repro.serve import load_service_state

        server = self._warm_server(small_graph, tmp_path)
        store = server._result_cache
        ((key, entry),) = store.snapshot().items()
        # A small bound, so that every insert past it also evicts: the
        # map grows and shrinks under the copy, as handlers make it.
        store.capacity = 64
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer(name: str) -> None:
            i = 0
            try:
                while not stop.is_set():
                    store.insert((f"{name}-{i}", *key[1:]), entry)
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
        assert store.evictions > 0
        assert summary["state"] == "closed"
        state = load_service_state(str(tmp_path / "state.jsonl"))
        assert state.skipped == 0
        assert state.graphs == ["small"]
        assert 1 <= len(state.results) <= 64
        assert all(saved == entry for saved in state.results.values())
        assert all(
            saved_key == key or saved_key[1:] == key[1:]
            for saved_key in state.results
        )
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


def _small_server(small_graph, **kwargs) -> MiningServer:
    registry = GraphRegistry(share=False)
    registry.add("small", small_graph)
    return MiningServer(registry=registry, **kwargs)


def _opened(server: MiningServer) -> int:
    return server.metrics.value("serve.connections.opened", 0)


def _wait_until(condition, timeout: float = 5.0) -> None:
    stop = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < stop, "condition never held"
        time.sleep(0.005)


class _RecordingHandle:
    """Wraps ``server.handle`` to record the op of every request."""

    def __init__(self, server: MiningServer) -> None:
        self.inner = server.handle
        self.ops: list[str] = []
        server.handle = self

    def __call__(self, request: dict) -> dict:
        self.ops.append(str(request.get("op")))
        return self.inner(request)


class TestPersistentConnections:
    """One connection per client thread, dropped or reopened only when
    the transport says so; ``close()`` hangs every connection up."""

    def test_one_thread_opens_one_connection(self, small_graph):
        oracle = repro.run(small_graph, [TRIANGLE]).results
        with _small_server(small_graph, workers=1) as server:
            client = Client(port=server.port)
            for i in range(200):
                if i % 2:
                    assert client.ping()
                else:
                    assert client.run("small", TRIANGLE).results == oracle
            assert _opened(server) == 1

    def test_two_threads_sharing_a_client_open_two(self, small_graph):
        patterns = list(motif_patterns(3))
        oracle = repro.run(small_graph, patterns).results
        failures: list = []
        with _small_server(small_graph, workers=2) as server:
            client = Client(port=server.port)

            def loop() -> None:
                try:
                    for _ in range(25):
                        if client.run("small", patterns).results != oracle:
                            failures.append("diverged from the oracle")
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(repr(exc))

            threads = [threading.Thread(target=loop) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert _opened(server) == 2

    def test_concurrent_hits_keep_exact_counts(self, small_graph):
        """More client threads than cores, switching as often as possible:
        hits answered on connection threads lose no metric update."""
        import sys

        oracle = repro.run(small_graph, [TRIANGLE]).results
        failures: list = []
        with _small_server(small_graph, workers=1) as server:
            client = Client(port=server.port)
            assert not client.run("small", TRIANGLE).cached

            def loop() -> None:
                try:
                    for _ in range(40):
                        result = client.run("small", TRIANGLE)
                        if not result.cached or result.results != oracle:
                            failures.append(result)
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(repr(exc))

            threads = [threading.Thread(target=loop) for _ in range(6)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert server.metrics.value("serve.result_cache.hits") == 240
            assert server.metrics.histogram("serve.latency.total").count == 241
            assert server.flight.occupancy()["recorded"] == 241
            assert _opened(server) == 7

    def test_close_hangs_up_live_connections(self, small_graph):
        server = _small_server(small_graph, workers=1)
        server.start()
        client = connect(port=server.port)
        server.close()
        start = time.monotonic()
        with pytest.raises((ConnectionError, OSError)):
            client.ping()
        assert time.monotonic() - start < 1.0

    def test_reconnects_after_a_drain_ack_hang_up(self, small_graph, monkeypatch):
        with _small_server(small_graph, workers=1) as server:
            # Keep the daemon up: only the hang-up after the ack is wanted.
            monkeypatch.setattr(server, "drain", lambda *args: None)
            client = connect(port=server.port)
            assert client._checked({"op": "drain"})["draining"]
            _wait_until(lambda: not server._connections)
            recorder = _RecordingHandle(server)
            assert client.ping()
            assert recorder.ops == ["ping"]
            assert _opened(server) == 2

    def test_a_protocol_error_elsewhere_leaves_the_client_alone(self, small_graph):
        with _small_server(small_graph, workers=1) as server:
            client = connect(port=server.port)
            with socket.create_connection((server.host, server.port)) as raw:
                stream = raw.makefile("rwb")
                stream.write(b"not json\n")
                stream.flush()
                answer = protocol.read_message(stream)
                assert answer["error"].startswith("protocol-error")
                assert protocol.read_message(stream) is None  # hung up
                stream.close()
            recorder = _RecordingHandle(server)
            assert client.ping()
            assert recorder.ops == ["ping"]
            assert _opened(server) == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_a_forked_child_opens_its_own_connection(self, small_graph):
        with _small_server(small_graph, workers=1) as server:
            client = connect(port=server.port)
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                status = b"ok"
                try:
                    assert client.ping()
                except BaseException as exc:  # noqa: BLE001 - sent to the parent
                    status = repr(exc).encode()
                os.write(write_end, status)
                os._exit(0)
            os.close(write_end)
            os.waitpid(pid, 0)
            with os.fdopen(read_end, "rb") as pipe:
                assert pipe.read() == b"ok"
            assert _opened(server) == 2
            assert client.ping()  # the parent's connection is intact
            assert _opened(server) == 2

    def test_a_timed_out_request_never_answers_the_next(self, small_graph):
        from repro.testing.faults import QueryFaultPlan, QueryFaultSpec

        chaos = QueryFaultPlan({0: QueryFaultSpec("slow", times=1, seconds=1.0)})
        with _small_server(small_graph, workers=1, chaos=chaos) as server:
            client = Client(port=server.port, timeout=0.3)
            with pytest.raises(socket.timeout):
                client.run("small", TRIANGLE, chaos_index=0)
            # The late answer goes to the dropped connection, not to this.
            assert client.ping()
            assert _opened(server) == 2

    def test_torn_socket_without_retry_still_raises(self, small_graph):
        from repro.testing.faults import QueryFaultPlan, QueryFaultSpec

        chaos = QueryFaultPlan({0: QueryFaultSpec("torn-socket", times=1)})
        with _small_server(small_graph, workers=1, chaos=chaos) as server:
            client = connect(port=server.port)
            with pytest.raises(ConnectionError, match="closed the connection"):
                client.run("small", TRIANGLE, chaos_index=0)
            # The next request starts on a fresh connection.
            assert client.run("small", TRIANGLE, chaos_index=0).results
            assert _opened(server) == 2


class TestEarlyHits:
    """Result-cache hits are answered on the connection thread, before
    admission, and read the same as a hit answered by a worker."""

    def test_a_hit_overtakes_a_busy_worker(self, small_graph):
        from repro.testing.faults import QueryFaultPlan, QueryFaultSpec

        chaos = QueryFaultPlan({0: QueryFaultSpec("slow", times=1, seconds=1.0)})
        with _small_server(small_graph, workers=1, chaos=chaos) as server:
            client = connect(port=server.port)
            assert not client.run("small", TRIANGLE).cached
            slow = threading.Thread(
                target=client.run,
                args=("small", WEDGE),
                kwargs={"chaos_index": 0, "use_result_cache": False},
            )
            slow.start()
            # Wait until the one worker has taken the slow query.
            _wait_until(
                lambda: server.scheduler.total_inflight() == 1
                and server.scheduler.depth == 0
            )
            assert client.run("small", TRIANGLE).cached
            assert server.scheduler.total_inflight() == 1  # still sleeping
            slow.join(timeout=30)
            assert not slow.is_alive()

    def test_a_hit_is_answered_at_the_client_limit(self, small_graph):
        server = _small_server(
            small_graph,
            policy=AdmissionPolicy(max_queue_depth=8, max_per_client=1),
            workers=0,
        )
        try:
            request = {"op": "run", "graph": "small", "patterns": [tri_text()]}
            assert not server.handle(dict(request))["cached"]
            assert server.scheduler.submit(Query({}, client="greedy")) == "accepted"
            server.start()
            client = connect(port=server.port, client_id="greedy")
            assert client.run("small", TRIANGLE).cached
            with pytest.raises(RuntimeError, match="rejected:client-limit"):
                client.run("small", WEDGE)
        finally:
            server.close()

    def test_a_hit_is_refused_while_draining(self, server, tmp_path):
        request = {"op": "run", "graph": "small", "patterns": [tri_text()]}
        assert server.handle(dict(request))["ok"]
        server.drain(dump_dir=str(tmp_path))
        assert server.handle(dict(request))["error"] == "rejected:draining"
        assert server.metrics.value("serve.result_cache.hits", 0) == 0

    def test_a_hit_is_refused_by_an_open_breaker(self, small_graph):
        clock = FakeClock()
        server = _small_server(
            small_graph, clock=clock, breaker_threshold=1, breaker_reset_s=60
        )
        try:
            request = {"op": "run", "graph": "small", "patterns": [tri_text()]}
            assert server.handle(dict(request))["ok"]
            breaker = server.breakers.get("small", "peregrine")
            breaker.record_failure()
            refused = server.handle(dict(request))
            assert refused["error"] == "rejected:circuit-open"
            assert refused["retry_after_s"] > 0
            assert server.metrics.value("serve.result_cache.hits", 0) == 0
            # After the cool-down the hit is the half-open probe, and it
            # closes the breaker, as a hit answered by a worker does.
            clock.advance(60)
            assert server.handle(dict(request))["cached"]
            assert breaker.state == "closed"
        finally:
            server.close()

    def test_observables_match_a_worker_hit(self, server):
        request = {"op": "run", "graph": "small", "patterns": [tri_text()]}
        # Two identical queries queued together: the second one is a hit
        # answered by the worker (the path every hit took before).
        queued = [Query(dict(request), query_id=f"q-w{i}") for i in range(2)]
        for query in queued:
            query.options = RunOptions()
            query.cache_key = server._result_key(query.request, query.options)
            assert server.scheduler.submit(query) == "accepted"
        while server.scheduler.run_next(server._execute):
            pass
        cold, worker_hit = (query.response for query in queued)
        assert not cold["cached"] and worker_hit["cached"]

        early = server.handle({**request, "idempotency_key": "k1"})
        replay = server.handle({**request, "idempotency_key": "k1"})
        strip = lambda r: {k: v for k, v in r.items() if k != "query_id"}
        assert json.dumps(strip(early)) == json.dumps(strip(worker_hit))
        assert replay == early and server._idempotency.lookup("k1") == early
        assert server.metrics.value("serve.result_cache.hits") == 2
        assert server.metrics.value("serve.result_cache.misses") == 1
        assert server.metrics.value("serve.idempotent.replays") == 1
        # Total latency for the early hit only (the queued pair bypassed
        # ``handle``); queue wait only for the two scheduled queries.
        assert server.metrics.histogram("serve.latency.total").count == 1
        assert server.metrics.histogram("serve.latency.queue_wait").count == 2
        assert server.metrics.value("serve.admission.accepted") == 2
        record = server.flight.find(early["query_id"])
        assert record is not None and record.cached and record.status == "ok"
        assert record.queue_wait == 0.0 and record.trace is None


#: Lines no well-behaved client sends, each answered by ``protocol-error``.
_BAD_LINES = st.one_of(
    st.binary(max_size=64).map(lambda b: b"\x00" + b.replace(b"\n", b"") + b"\n"),
    st.one_of(
        st.integers(), st.text(), st.booleans(), st.none(), st.lists(st.integers())
    ).map(lambda v: json.dumps(v).encode() + b"\n"),
    st.binary(max_size=32).map(lambda b: b"\xff" + b.replace(b"\n", b"") + b"\n"),
    st.just(b"x" * (1 << 20) + b"\n"),
)


class TestWireFuzz:
    """Garbage on a persistent connection: everything before it is
    answered, the garbage gets a typed ``protocol-error``, then the
    daemon hangs up that connection and keeps serving new ones."""

    def test_bad_lines_after_valid_requests(self, small_graph):
        from repro.engines.execution import assert_no_leaked_segments

        oracle = repro.run(small_graph, [TRIANGLE, WEDGE]).results
        valid = [
            ({"op": "ping"}, lambda r: r == {"ok": True, "pong": True}),
            ({"op": "graphs"}, lambda r: r["graphs"][0]["name"] == "small"),
        ] + [
            (
                {"op": "run", "graph": "small", "patterns": [repro.format_pattern(p)]},
                lambda r, p=p: decode_value(r["results"][repro.format_pattern(p)])
                == oracle[p],
            )
            for p in (TRIANGLE, WEDGE)
        ]
        registry = GraphRegistry()  # shared memory, for the leak check
        registry.add("small", small_graph)
        with MiningServer(registry=registry, workers=1) as server:

            @settings(max_examples=40, deadline=None)
            @given(
                picks=st.lists(st.integers(0, len(valid) - 1), max_size=4),
                bad=st.one_of(
                    _BAD_LINES.map(lambda line: (line, False)),
                    # Torn: a request cut short, then the write side closed.
                    st.integers(1, 40).map(lambda n: (b'{"op": "run", "graph": "small"'[:n], True)),
                ),
            )
            def exchange(picks, bad):
                line, torn = bad
                with socket.create_connection((server.host, server.port)) as sock:
                    stream = sock.makefile("rwb")
                    for pick in picks:
                        request, check = valid[pick]
                        protocol.write_message(stream, request)
                        assert check(protocol.read_message(stream))
                    stream.write(line)
                    stream.flush()
                    if torn:
                        sock.shutdown(socket.SHUT_WR)
                    answer = protocol.read_message(stream)
                    assert answer["ok"] is False
                    assert answer["error"].startswith("protocol-error")
                    assert protocol.read_message(stream) is None
                    stream.close()

            exchange()
            assert connect(port=server.port).ping()
            assert server.metrics.value("serve.protocol.errors") >= 1
        assert_no_leaked_segments()
