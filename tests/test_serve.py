"""Tests for the resident mining service (:mod:`repro.serve`).

Four layers, innermost first: the tagged wire encoding round-trips
every aggregation value type exactly; the scheduler's admission
verdicts and priority ordering are deterministic (injectable clock, no
threads); the server's dict-level protocol serves cached results
byte-identical to cold ones and reports plan-cache hits on warm
repeats; and the full socket stack answers concurrent multi-client
query mixes identically to the serial in-process oracle, then shuts
down. On top of the socket stack: one persistent
connection per client thread, result-cache hits answered before
admission, and hypothesis-generated garbage on a live connection. A hit
goes out as its cache entry's frame with two fields spliced on, so its
bytes are checked against the dict it stands for, across a drain and
resume too; the client encodes each distinct request once.
"""

from __future__ import annotations

import io
import json
import os
import socket
import sys
import threading
import time
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.atlas import TRIANGLE, motif_patterns
from repro.core.pattern import Pattern
from repro.engines.execution import ThreadShardExecutor
from repro.engines.peregrine.engine import PeregrineEngine
from repro.morph.cache import STORE_CAPACITY
from repro.morph.session import MorphingSession
from repro.options import RunOptions
from repro.serve import protocol
from repro.serve import server as server_module
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
        registry = GraphRegistry()
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
        with GraphRegistry() as registry:
            registry.add("g", small_graph)
            assert registry.get("g").graph is small_graph
            (row,) = registry.describe()
            assert row["name"] == "g"
            assert row["vertices"] == small_graph.num_vertices
            assert "shared" not in row

    def test_add_is_idempotent(self, small_graph):
        with GraphRegistry() as registry:
            first = registry.add("g", small_graph)
            assert registry.add("g", small_graph) is first
            assert len(registry) == 1

    def test_missing_graph_raises(self):
        with GraphRegistry() as registry:
            with pytest.raises(KeyError, match="not resident"):
                registry.get("nope")

    def test_unknown_name_raises(self):
        with GraphRegistry() as registry:
            with pytest.raises(KeyError, match="unknown graph"):
                registry.load("no-such-dataset-or-path")

    def test_load_dataset_and_dispose_segments(self):
        registry = GraphRegistry()
        resident = registry.load("mico")
        assert registry.load("MI") is not resident  # code vs name differ as keys
        registry.close()
        assert len(registry) == 0

    def test_concurrent_loads_of_one_name_build_once(self, small_graph):
        """Two threads loading one name wait on one build and share its
        graph, even when the build is slow."""
        builds = []

        class SlowRegistry(GraphRegistry):
            def _build(self, name):
                builds.append(name)
                time.sleep(0.2)
                return small_graph

        registry = SlowRegistry()
        start = threading.Barrier(2, timeout=10)
        loaded = []

        def load():
            start.wait()
            loaded.append(registry.load("g"))

        threads = [threading.Thread(target=load) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert builds == ["g"]
        assert len(loaded) == 2 and loaded[0] is loaded[1]
        assert loaded[0].graph is small_graph


class FakeClock:
    """Deterministic monotonic clock for deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def hold_slot(scheduler: QueryScheduler, tag: str = "holder") -> Query:
    """Submit a query that takes a free slot, so later ones queue."""
    holder = Query({"tag": tag}, client=tag)
    assert scheduler.submit(holder) == "accepted"
    assert scheduler.acquire(holder) is None and holder.holds_slot
    return holder


def granted(queries: list[Query]) -> Query:
    """The one query of ``queries`` that holds a slot."""
    (holder,) = [query for query in queries if query.holds_slot]
    return holder


class TestScheduler:
    def test_priority_ordering_fifo_within_level(self):
        scheduler = QueryScheduler(slots=1)
        holder = hold_slot(scheduler)
        queries = [
            Query({"tag": "low"}, priority=0),
            Query({"tag": "high"}, priority=5),
            Query({"tag": "mid"}, priority=1),
            Query({"tag": "high2"}, priority=5),
        ]
        for query in queries:
            assert scheduler.submit(query) == "accepted"
        assert scheduler.depth == 4
        order = []
        for _ in range(4):
            # Each release grants exactly the next query, and only it.
            scheduler.release(holder)
            holder = granted(queries)
            assert scheduler.acquire(holder) is None
            order.append(holder.request["tag"])
        assert order == ["high", "high2", "mid", "low"]

    def test_queue_full_rejection(self):
        scheduler = QueryScheduler(
            policy=AdmissionPolicy(max_queue_depth=2), slots=1
        )
        hold_slot(scheduler)
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
        assert scheduler.acquire(query) is None
        assert scheduler.inflight("a") == 1  # executing still counts
        scheduler.release(query)
        assert scheduler.inflight("a") == 0 and not query.holds_slot
        assert scheduler.submit(Query({}, client="a")) == "accepted"

    def test_deadline_infeasible_at_submit_rejected(self):
        clock = FakeClock()
        scheduler = QueryScheduler(
            policy=AdmissionPolicy(estimated_service_seconds=1.0),
            clock=clock,
            slots=1,
        )
        hold_slot(scheduler)
        for _ in range(3):
            assert scheduler.submit(Query({})) == "accepted"
        # 3 queued × ~1s each, but only 2s of deadline headroom: reject.
        hopeless = Query({}, deadline=scheduler.make_deadline(2.0))
        assert scheduler.submit(hopeless) == "rejected:deadline"
        feasible = Query({}, deadline=scheduler.make_deadline(10.0))
        assert scheduler.submit(feasible) == "accepted"

    def test_deadline_expired_while_queued_never_runs(self):
        clock = FakeClock()
        scheduler = QueryScheduler(clock=clock, slots=1)
        holder = hold_slot(scheduler)
        query = Query({}, deadline=scheduler.make_deadline(1.0))
        assert scheduler.submit(query) == "accepted"
        clock.advance(2.0)
        scheduler.release(holder)
        assert scheduler.acquire(query) == {
            "ok": False,
            "error": "rejected:deadline",
            "admission": "rejected:deadline",
        }
        assert not query.holds_slot and scheduler.total_inflight() == 0
        assert scheduler.metrics.value("serve.admission.rejected.deadline") == 1
        # The refused query did not take the slot: the next one gets it.
        nxt = Query({})
        assert scheduler.submit(nxt) == "accepted" and nxt.holds_slot

    def test_execute_exception_becomes_error_response(self, server, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("kaput")

        monkeypatch.setattr(server_module.MorphingSession, "run", boom)
        response = server.handle(
            {"op": "run", "graph": "small", "patterns": [tri_text()]}
        )
        assert response == {
            "ok": False,
            "error": "RuntimeError: kaput",
            "query_id": response["query_id"],
        }
        assert server.scheduler.total_inflight() == 0
        assert server.flight.find(response["query_id"]).status == "error"

    def test_close_rejects_pending(self):
        scheduler = QueryScheduler(slots=1)
        holder = hold_slot(scheduler)
        query = Query({})
        scheduler.submit(query)
        refusals = []
        waiter = threading.Thread(
            target=lambda: refusals.append(scheduler.acquire(query))
        )
        waiter.start()
        scheduler.close()
        waiter.join(timeout=5)
        assert refusals == [{"ok": False, "error": "scheduler closed"}]
        assert scheduler.depth == 0 and scheduler.inflight("anonymous") == 0
        # The query that held a slot runs on and gives it back.
        assert holder.holds_slot
        scheduler.release(holder)
        assert scheduler.total_inflight() == 0

    def test_slots_bound_concurrent_holders(self):
        """More threads than cores contend for two slots with the switch
        interval shortened: never more than two hold one at once, and
        every slot and in-flight charge comes back."""
        scheduler = QueryScheduler(
            policy=AdmissionPolicy(max_queue_depth=64), slots=2
        )
        lock = threading.Lock()
        holding = {"now": 0, "most": 0}
        errors: list[BaseException] = []

        def contend(index: int) -> None:
            try:
                for _ in range(100):
                    query = Query({}, client=f"c{index}")
                    assert scheduler.submit(query) == "accepted"
                    assert scheduler.acquire(query) is None
                    with lock:
                        holding["now"] += 1
                        holding["most"] = max(holding["most"], holding["now"])
                    time.sleep(0)
                    with lock:
                        holding["now"] -= 1
                    scheduler.release(query)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=contend, args=(n,)) for n in range(8)]
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
        assert errors == []
        assert 1 <= holding["most"] <= 2
        assert scheduler.metrics.value("serve.admission.accepted") == 800
        assert scheduler.total_inflight() == 0 and scheduler.depth == 0
        # Every slot is free again: two new queries are granted at once.
        fresh = [Query({}), Query({})]
        for query in fresh:
            scheduler.submit(query)
        assert all(query.holds_slot for query in fresh)

    def test_depth_gauge_tracks_queue(self):
        scheduler = QueryScheduler(slots=1)
        holder = hold_slot(scheduler)
        scheduler.submit(Query({}))
        scheduler.submit(Query({}))
        assert scheduler.metrics.value("serve.queue.depth") == 2
        scheduler.release(holder)
        assert scheduler.metrics.value("serve.queue.depth") == 1


@pytest.fixture()
def server(small_graph):
    """Threadless dict-level server over ``small_graph`` (no sockets)."""
    registry = GraphRegistry()
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

    def test_options_are_rejected_every_time(self, server):
        """Key order does not matter, and every request that carries a
        bad field is rejected again."""
        base = {"op": "run", "graph": "small", "patterns": [tri_text()]}
        for options in (
            {"engine": "peregrine", "margin": 0.55},
            {"margin": 0.55, "engine": "peregrine"},
        ):
            assert server.handle({**base, "options": options})["ok"]
        for _ in range(2):
            response = server.handle({**base, "options": {"wrkers": 2}})
            assert not response["ok"] and "wrkers" in response["error"]

    def test_hits_count_as_queries(self, server):
        """``serve.queries`` (``repro top``'s count, ``health``'s
        ``queries``) counts every answered query, result-cache hits
        included, and no failed one."""
        request = {"op": "run", "graph": "small", "patterns": [tri_text()]}
        assert not server.handle(dict(request))["cached"]
        assert server.handle(dict(request))["cached"]
        assert not server.handle({**request, "graph": "nope"})["ok"]
        assert server.handle({"op": "health"})["queries"] == 2

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
        registry = GraphRegistry()
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
        assert sorted(tiers) == [
            "idempotency", "measurement", "plan", "requests", "result"
        ]
        assert all(tier["entries"] <= 3 for tier in tiers.values())
        # Only the socket handler reads request lines.
        assert tiers["requests"] == {"entries": 0, "evictions": 0}
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
        registry = GraphRegistry()
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
        registry = GraphRegistry()
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
        registry = GraphRegistry()
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
        registry = GraphRegistry()
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
        registry = GraphRegistry()
        registry.add("small", small_graph)
        with MiningServer(registry=registry, workers=2) as server:
            first = connect(port=server.port, client_id="a").run("small", TRIANGLE)
            second = connect(port=server.port, client_id="b").run("small", TRIANGLE)
            assert not first.cached and second.cached
            assert first.results == second.results

    def test_load_on_demand_over_socket(self):
        with MiningServer(registry=GraphRegistry()) as server:
            server.start()
            client = connect(port=server.port)
            description = client.load("mico")
            assert description["name"] == "mico"
            assert any(row["name"] == "mico" for row in client.graphs())
            result = client.run("mico", TRIANGLE)
            assert result.results[TRIANGLE] > 0


def _small_server(small_graph, **kwargs) -> MiningServer:
    registry = GraphRegistry()
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

    def test_observables_match_a_queued_hit(self, small_graph):
        server = _small_server(small_graph, workers=1)
        request = {"op": "run", "graph": "small", "patterns": [tri_text()]}
        answers: dict[int, dict] = {}
        try:
            # Two identical queries queue behind a query that holds the
            # only slot: the first misses, and the second is a hit
            # answered by ``execute`` (the path every hit took before
            # hits were answered ahead of admission).
            holder = Query({}, client="holder")
            assert server.scheduler.submit(holder) == "accepted"
            threads = []
            for index in range(2):
                thread = threading.Thread(
                    target=lambda i=index: answers.__setitem__(
                        i, server.handle(dict(request))
                    )
                )
                thread.start()
                threads.append(thread)
                _wait_until(lambda n=index + 1: server.scheduler.depth == n)
            server.scheduler.release(holder)
            for thread in threads:
                thread.join(timeout=30)
            cold, queued_hit = answers[0], answers[1]
            assert not cold["cached"] and queued_hit["cached"]

            early = server.handle({**request, "idempotency_key": "k1"})
            replay = server.handle({**request, "idempotency_key": "k1"})
        finally:
            server.close()
        strip = lambda r: {k: v for k, v in r.items() if k != "query_id"}
        assert json.dumps(strip(early)) == json.dumps(strip(queued_hit))
        assert replay == early and server._idempotency.lookup("k1") == early
        assert server.metrics.value("serve.result_cache.hits") == 2
        assert server.metrics.value("serve.result_cache.misses") == 1
        assert server.metrics.value("serve.idempotent.replays") == 1
        # Total latency for the three walks (not the replay); queue wait
        # only for the two queries granted a slot by the walk.
        assert server.metrics.histogram("serve.latency.total").count == 3
        assert server.metrics.histogram("serve.latency.queue_wait").count == 2
        # The holder and the two queued queries.
        assert server.metrics.value("serve.admission.accepted") == 3
        record = server.flight.find(early["query_id"])
        assert record is not None and record.cached and record.status == "ok"
        assert record.queue_wait == 0.0 and record.trace is None
        queued = server.flight.find(queued_hit["query_id"])
        assert queued.cached and queued.queue_wait > 0.0


class TestUnservedOptions:
    """Options that would have the daemon write a client-named file,
    draw on its terminal or shard past its CPUs are refused at admission,
    with a typed error, before anything opens a file or starts a
    process or a shard thread."""

    @staticmethod
    def _run(server, **options) -> dict:
        return server.handle(
            {"op": "run", "graph": "small", "patterns": [tri_text()],
             "options": options}
        )

    def test_a_checkpoint_path_is_refused_and_never_created(self, server, tmp_path):
        journal = tmp_path / "journal.jsonl"
        refused = self._run(server, checkpoint=str(journal))
        assert not refused["ok"]
        assert refused["error"].startswith("UnservedOptionError: option 'checkpoint'")
        assert not journal.exists()
        assert server.metrics.value("serve.admission.accepted", 0) == 0
        assert server.flight.find(refused["query_id"]).status == "error"

    @pytest.mark.parametrize("name, value", [
        ("trace", "trace.jsonl"), ("trace", True), ("progress", True),
    ])
    def test_trace_and_progress_are_refused(
        self, server, tmp_path, monkeypatch, name, value
    ):
        monkeypatch.chdir(tmp_path)
        refused = self._run(server, **{name: value})
        assert refused["error"].startswith(f"UnservedOptionError: option {name!r}")
        assert list(tmp_path.iterdir()) == []

    def test_more_workers_than_cpus_is_refused_before_a_process_starts(
        self, server, monkeypatch
    ):
        import multiprocessing.process

        def no_process(*args, **kwargs):
            raise AssertionError("a process or a shard thread was started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        monkeypatch.setattr(os, "fork", no_process)
        monkeypatch.setattr(ThreadShardExecutor, "submit", no_process)
        refused = self._run(server, workers=(os.cpu_count() or 1) + 1)
        assert refused["error"].startswith("UnservedOptionError: option 'workers'")
        # Null fields, as ``RunOptions.to_dict`` sends them, are served.
        served = self._run(
            server, workers=1, checkpoint=None, trace=None, progress=None
        )
        assert served["ok"]


#: Lines no well-behaved client sends, each answered by ``protocol-error``.
_BAD_LINES = st.one_of(
    st.binary(max_size=64).map(lambda b: b"\x00" + b.replace(b"\n", b"") + b"\n"),
    st.one_of(
        st.integers(), st.text(), st.booleans(), st.none(), st.lists(st.integers())
    ).map(lambda v: json.dumps(v).encode() + b"\n"),
    st.binary(max_size=32).map(lambda b: b"\xff" + b.replace(b"\n", b"") + b"\n"),
    st.just(b"x" * (1 << 20) + b"\n"),
    # Blank and whitespace-only lines are not messages either.
    st.text(alphabet=" \t\r\f\v", max_size=8).map(lambda t: t.encode() + b"\n"),
)


class TestWireFuzz:
    """Garbage on a persistent connection: everything before it is
    answered, the garbage gets a typed ``protocol-error``, then the
    daemon hangs up that connection and keeps serving new ones."""

    def test_bad_lines_after_valid_requests(self, small_graph):
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
        registry = GraphRegistry()
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


#: Answers a session can give, each of which the wire must carry exactly:
#: counts (past 64 bits too), existence, MNI tables and match lists.
_ANSWERS = st.one_of(
    st.integers(min_value=0, max_value=1 << 70),
    st.integers(min_value=1 << 63, max_value=(1 << 63) + 8),
    st.booleans(),
    st.lists(st.frozensets(st.integers(0, 1 << 40), max_size=4), max_size=4).map(tuple),
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=5),
)

#: Vertex labels; decimal digits of other scripts parse as integers, so
#: the pattern texts, and the result keys, are not ASCII.
_LABELS = st.one_of(
    st.integers(0, 9),
    st.text(alphabet="٠١٢٣०१२", min_size=1, max_size=3),
)


class TestHitFrames:
    """A hit's frame is its cache entry's, with ``cached`` and
    ``query_id`` spliced on: the same bytes as encoding the dict
    ``handle()`` returns, and the same answer as the miss."""

    def test_spliced_frames_equal_encoded_dicts(self, small_graph, monkeypatch):
        drawn = {}

        class DrawnSession:
            """Answers every pattern with the drawn value."""

            def __init__(self, engine, options=None):
                pass

            def run(self, graph, patterns):
                return SimpleNamespace(
                    results={pattern: drawn["value"] for pattern in patterns},
                    transform_seconds=1e-4,
                    match_seconds=2.5e-4,
                    convert_seconds=0.0,
                    executor_seconds=0.0,
                    total_seconds=3.5e-4,
                    trace=None,
                )

        monkeypatch.setattr(server_module, "MorphingSession", DrawnSession)
        with _small_server(small_graph, workers=1) as server:
            client = connect(port=server.port)

            @settings(max_examples=60, deadline=None)
            @given(value=_ANSWERS, labels=st.lists(_LABELS, min_size=3, max_size=3))
            def exchange(value, labels):
                server._result_cache.clear()
                drawn["value"] = value
                pattern = TRIANGLE.with_labels(labels)
                miss = client.run("small", pattern)
                hit = client.run("small", pattern)
                assert not miss.cached and hit.cached
                assert hit.results == miss.results == {pattern: value}
                assert type(hit.results[pattern]) is type(value)
                answer = server.handle(
                    {"op": "run", "graph": "small", "patterns": [pattern.text]}
                )
                assert answer["cached"] and type(answer) is protocol.Framed
                assert answer.frame == protocol.encode_message(answer)

            exchange()

    def test_a_miss_frame_is_spliced_from_its_entry(self, server):
        request = {"op": "run", "graph": "small", "patterns": [tri_text()]}
        miss = server.handle(dict(request))
        assert not miss["cached"] and type(miss) is protocol.Framed
        assert miss.frame == protocol.encode_message(miss)
        ((key, entry),) = server._result_cache.snapshot().items()
        assert miss.frame.startswith(entry.frame[:-2])
        assert dict(entry) == {
            k: v for k, v in miss.items() if k not in ("cached", "query_id")
        }


def _recording_client(**kwargs) -> tuple[Client, list[bytes]]:
    """A client whose connection is a stub: it keeps every frame sent
    and answers each with an empty result."""
    client = Client(port=1, **kwargs)
    sent: list[bytes] = []

    def request(frame: bytes) -> dict:
        sent.append(frame)
        return {"ok": True, "results": {}}

    client._request = request
    return client, sent


def _parent_frame(client, graph, patterns, options=None, priority=0,
                  use_result_cache=True) -> bytes:
    """The frame a ``run`` call is sent as, encoded afresh, without a
    memo: ``options`` only when the call gives some."""
    request = {
        "op": "run",
        "graph": graph,
        "patterns": [repro.format_pattern(p) for p in patterns],
    }
    if options is not None:
        request["options"] = options.to_dict()
    request.update(
        client=client.client_id, priority=priority, use_result_cache=use_result_cache
    )
    return protocol.encode_message(request)


class TestRequestMemos:
    """The client's frame memo shares an entry only between requests
    whose JSON is the same, and the daemon reads options type-exact."""

    def test_requests_whose_json_differs_never_share_a_frame(self):
        client, sent = _recording_client()
        calls = [
            {"patterns": [Pattern(1, [], labels=[6])]},
            {"patterns": [Pattern(1, [], labels=[6.0])]},
            {"patterns": [Pattern(1, [], labels=["6"])]},
            {"patterns": [WEDGE], "priority": 1},
            {"patterns": [WEDGE], "priority": True},
            {"patterns": [WEDGE], "use_result_cache": 1},
            {"patterns": [WEDGE], "use_result_cache": True},
        ]
        for call in calls * 2:
            client.run("small", **call)
        expected = [_parent_frame(client, "small", **call) for call in calls]
        assert sent == expected * 2
        # Label 6 and label "6" render alike: one frame, one entry.
        assert len(set(expected)) == len(calls) - 1
        assert len(client._frames) == len(set(expected))

    def test_options_are_type_exact(self, server):
        base = {"op": "run", "graph": "small", "patterns": [tri_text()]}
        assert server.handle({**base, "options": {"workers": 1}})["ok"]
        refused = server.handle({**base, "options": {"workers": True}})
        assert not refused["ok"] and "workers must be an int" in refused["error"]

    def test_the_client_memo_is_bounded(self):
        client, sent = _recording_client()
        for index in range(STORE_CAPACITY + 1):
            client.run(f"g{index}", WEDGE)
        frames = client._frames
        assert len(frames) == STORE_CAPACITY and frames.evictions == 1
        client.run(f"g{STORE_CAPACITY}", WEDGE)  # kept: no new encoding
        assert frames.misses == STORE_CAPACITY + 1
        client.run("g0", WEDGE)  # the oldest was evicted: encoded again
        assert frames.misses == STORE_CAPACITY + 2
        assert sent[-1] == sent[0]

    def test_threads_share_one_memo(self):
        """More threads than cores, switching as often as possible: every
        lookup is counted and each distinct request is kept once."""
        import sys

        client, sent = _recording_client()
        patterns = [TRIANGLE, WEDGE, Pattern(1, [], labels=[6])]
        errors: list[BaseException] = []

        def caller(index: int) -> None:
            try:
                for call in range(200):
                    client.run(f"g{call % 5}", patterns[(index + call) % 3])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(n,)) for n in range(4)]
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
        assert errors == []
        frames = client._frames
        assert len(frames) == 15 and len(set(sent)) == 15
        assert frames.hits + frames.misses == len(sent) == 800

    def test_explicit_options_bypass_the_memo(self):
        client, sent = _recording_client()
        calls = [RunOptions(), RunOptions(margin=1), RunOptions(margin=1.0)]
        with mock.patch.object(
            RunOptions, "to_dict", autospec=True, side_effect=RunOptions.to_dict
        ) as to_dict:
            for options in calls * 2:
                client.run("small", WEDGE, options=options)
        assert to_dict.call_count == len(sent) == 6
        assert len(client._frames) == 0
        expected = [_parent_frame(client, "small", [WEDGE], o) for o in calls]
        assert sent == expected * 2

    def test_retry_and_chaos_calls_bypass_the_memo(self):
        retrying, sent = _recording_client(retry=1)
        for _ in range(2):
            retrying.run("small", WEDGE)
        assert len(retrying._frames) == 0
        keys = [json.loads(frame)["idempotency_key"] for frame in sent]
        assert len(set(keys)) == 2
        tagged, sent = _recording_client()
        for _ in range(2):
            tagged.run("small", WEDGE, chaos_index=3)
        assert len(tagged._frames) == 0
        assert [json.loads(frame)["chaos_index"] for frame in sent] == [3, 3]


class TestSlimRequests:
    """``Client.run`` with default options sends no ``options`` field,
    where explicit default options send all eleven: both lines name one
    query."""

    def test_the_old_and_the_slim_wire_share_an_answer(self, small_graph):
        recorder, sent = _recording_client()
        recorder.run("small", TRIANGLE)
        (slim,) = sent
        old = _parent_frame(recorder, "small", [TRIANGLE], RunOptions())
        assert "options" not in json.loads(slim)
        assert len(json.loads(old)["options"]) == 11
        with _small_server(small_graph, workers=1) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                stream = sock.makefile("rwb")
                answers = []
                for line in (old, slim, old, slim):
                    stream.write(line)
                    stream.flush()
                    answers.append(json.loads(stream.readline()))
                stream.close()
            remote = connect(port=server.port).run("small", TRIANGLE)
            assert server._requests.hits == 3  # the client sent ``slim``
            assert len(server._result_cache) == 1
            assert server.metrics.value("serve.result_cache.misses") == 1
            assert server.metrics.value("serve.result_cache.hits") == 4
        assert [a["cached"] for a in answers] == [False, True, True, True]
        assert remote.cached
        assert remote.results == {
            TRIANGLE: decode_value(answers[0]["results"][tri_text()])
        }
        unstamped = [
            {k: v for k, v in a.items() if k not in ("query_id", "cached")}
            for a in answers
        ]
        assert unstamped == unstamped[:1] * 4

    @pytest.mark.parametrize(
        "options, error",
        [({"bogus": 1}, "unknown RunOptions field(s): bogus"),
         ({"retry": 3}, "unknown RunOptions field(s): retry"),
         ({"workers": True}, "workers must be an int")],
    )
    def test_a_bad_option_is_refused_on_every_request(
        self, small_graph, options, error
    ):
        line = protocol.encode_message(
            {"op": "run", "graph": "small", "patterns": [tri_text()],
             "options": options}
        )
        with _small_server(small_graph, workers=1) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                stream = sock.makefile("rwb")
                for _ in range(3):
                    stream.write(line)
                    stream.flush()
                    answer = json.loads(stream.readline())
                    assert not answer["ok"] and error in answer["error"]
                stream.close()
            # Kept after the first, so the last two were not decoded.
            assert server._requests.snapshot() == {line: json.loads(line)}
            assert server._requests.hits == 2


class TestJournalCompatibility:
    """The drain journal keeps the 3.14.0 format both ways, and a hit
    reads the same bytes before a drain and after the resume."""

    REQUESTS = [
        {"op": "run", "graph": "mico", "patterns": [tri_text()]},
        {"op": "run", "graph": "mico", "patterns": [repro.format_pattern(WEDGE)],
         "options": {"aggregation": "exists"}},
    ]

    @staticmethod
    def _journal_as_3_14_wrote_it(entries) -> str:
        """Every line as 3.14.0's ``save_service_state`` wrote it for a
        drained daemon serving ``mico``: plain dicts, sorted keys."""
        fields = ("fingerprint", "patterns", "aggregation", "engine",
                  "strategy", "morph", "margin", "workers", "batch_roots")
        lines = [
            {"drained": True, "graphs": 1, "kind": "meta",
             "results": len(entries), "version": 1},
            {"kind": "graph", "name": "mico"},
        ]
        for key, entry in entries.items():
            wire = dict(zip(fields, key))
            wire["patterns"] = list(wire["patterns"])
            lines.append({"key": wire, "kind": "result", "response": dict(entry)})
        return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)

    def test_old_journals_resume_and_new_ones_read_the_same(self, tmp_path):
        state_path = tmp_path / "state.jsonl"
        registry = GraphRegistry()
        registry.load("mico")
        first = MiningServer(
            registry=registry, workers=0, state_path=str(state_path),
            drain_deadline_s=2.0,
        )
        for request in self.REQUESTS:
            assert not first.handle(dict(request))["cached"]
        before = [first.handle(dict(request)) for request in self.REQUESTS]
        entries = first._result_cache.snapshot()
        first.drain(dump_dir=str(tmp_path / "flight"))
        legacy = self._journal_as_3_14_wrote_it(entries)
        assert state_path.read_text(encoding="utf-8") == legacy

        legacy_path = tmp_path / "legacy.jsonl"
        legacy_path.write_text(legacy, encoding="utf-8")
        second = MiningServer(registry=GraphRegistry(), workers=0)
        try:
            assert second.resume_from(str(legacy_path))["results"] == 2
            after = [second.handle(dict(request)) for request in self.REQUESTS]
        finally:
            second.close()
        for old, new in zip(before, after):
            assert old["cached"] and new["cached"]
            assert new.frame == protocol.encode_message(new)
            assert new.frame.replace(
                new["query_id"].encode(), old["query_id"].encode()
            ) == old.frame

    @pytest.mark.parametrize(
        "response", [{}, {"cached": False, "query_id": "q-000009", "ok": True}]
    )
    def test_any_journaled_response_frames_as_its_dict(
        self, server, tmp_path, response
    ):
        """A journal is outside input: an empty response, or one that
        kept its per-query fields, still answers a well-formed hit."""
        from repro.serve import save_service_state

        request = {"op": "run", "graph": "small", "patterns": [tri_text()]}
        key = server._result_key(request, RunOptions())
        path = str(tmp_path / "state.jsonl")
        save_service_state(path, graphs=[], result_cache={key: response})
        assert server.resume_from(path)["results"] == 1
        hit = server.handle(dict(request))
        assert hit["cached"] is True and hit["query_id"] != "q-000009"
        assert hit.frame == protocol.encode_message(hit)
        json.loads(hit.frame)
