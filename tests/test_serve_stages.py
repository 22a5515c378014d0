"""The served ``run`` op is one declared stage list walked by one runner.

:data:`repro.serve.server.STAGES` names the path of every served query
(admit → result_cache → queue → execute → record), and
``MiningServer._walk`` is the only code that times, traces, faults and
records it, on the thread that read the request. These tests pin what
that buys: every declared stage has a histogram, a served miss has one
span per stage it walked, in order and without overlap, and one batch
of samples; a chaos fault fires in the stage its kind names and nowhere
else; the server module keeps no timer or flight record outside the
runner; a started server runs no thread beyond its listener, sampler
and connections; a served deadline counts from admission; and a
result-cache hit costs no tracer, no JSON encoding on either end, no
completion event and one breaker lookup.
"""

from __future__ import annotations

import ast
import copy
import json
import socket
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core import parser as parser_module
from repro.core.atlas import TRIANGLE
from repro.observe.export import RunTrace
from repro.options import RunOptions
from repro.serve import GraphRegistry, MiningServer, Query, protocol, validate_stats
from repro.serve import server as server_module
from repro.serve.server import STAGES
from repro.testing.faults import (
    _QUERY_KINDS,
    QueryFault,
    QueryFaultPlan,
    QueryFaultSpec,
)

SERVER_SOURCE = Path(server_module.__file__)

STAGE_NAMES = [stage.name for stage in STAGES]


def tri_text() -> str:
    return repro.format_pattern(TRIANGLE)


def run_request(**fields) -> dict:
    return {"op": "run", "graph": "small", "patterns": [tri_text()], **fields}


def make_server(small_graph, **kwargs) -> MiningServer:
    registry = GraphRegistry(share=False)
    registry.add("small", small_graph)
    return MiningServer(registry=registry, **kwargs)


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so that each call is appended to the list
    returned."""
    calls: list = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def stage_counts(server: MiningServer) -> dict[str, int]:
    histograms = server.metrics.histogram_snapshots()
    return {
        name: histograms.get(f"serve.stage.{name}", {}).get("count", 0)
        for name in STAGE_NAMES
    }


class TestDeclaredStages:
    def test_the_list_names_the_run_op_in_order(self):
        assert STAGE_NAMES == [
            "admit", "result_cache", "queue", "execute", "record"
        ]
        # ``repro top`` parses ``serve.stage.<phase>.<engine>``: no
        # declared stage may shadow a session phase.
        assert not {"plan", "match", "convert"} & set(STAGE_NAMES)

    def test_a_mixed_burst_fills_every_stage_histogram(self, small_graph):
        with make_server(small_graph, workers=1) as server:
            miss = server.handle(run_request())
            hit = server.handle(run_request())
            refused = server.handle(
                run_request(
                    use_result_cache=False, options={"deadline_seconds": 1e-9}
                )
            )
            unknown = server.handle(run_request(graph="no-such-graph"))
            assert miss["ok"] and not miss["cached"]
            assert hit["ok"] and hit["cached"]
            assert refused["admission"] == "rejected:deadline"
            assert not unknown["ok"] and "no-such-graph" in unknown["error"]

            stats = validate_stats(server.handle({"op": "stats"}))
            for name in STAGE_NAMES:
                assert stats["histograms"][f"serve.stage.{name}"]["count"] > 0
            # Each request walked exactly the stages its path names: the
            # hit skips queue and execute, the refusal ends at queue, and
            # the failed query still reaches record.
            assert stage_counts(server) == {
                "admit": 4,
                "result_cache": 4,
                "queue": 3,
                "execute": 2,
                "record": 3,
            }
            # The refusal is not a served query: three flight records,
            # three end-to-end latency samples.
            assert stats["flight"]["recent"] == 3
            assert stats["histograms"]["serve.latency.total"]["count"] == 3

            record = server.flight.find(miss["query_id"])
            spans = record.trace.spans
            stage_spans = [s for s in spans if s.name.startswith("serve.stage.")]
            assert [s.name for s in stage_spans] == [
                f"serve.stage.{name}" for name in STAGE_NAMES
            ]
            (execute,) = [
                s for s in stage_spans if s.name == "serve.stage.execute"
            ]
            (query_span,) = [s for s in spans if s.name == "serve.query"]
            assert query_span.parent_id == execute.span_id
            record.trace.validate_nesting()
            assert all(s.attributes["query_id"] == miss["query_id"] for s in spans)

            failed = server.flight.find(unknown["query_id"])
            assert failed.status == "error" and failed.trace is None

    def test_a_served_miss_snapshots_its_tracer_once(self, small_graph, monkeypatch):
        """The session's trace is the flight record's: one ``RunTrace``
        per miss, carrying the walk's stage spans and the record's
        meta."""
        snapshots = count_calls(monkeypatch, RunTrace, "from_tracer")
        with make_server(small_graph, workers=1) as server:
            miss = server.handle(run_request())
            assert miss["ok"] and not miss["cached"]
            assert len(snapshots) == 1
            trace = server.flight.find(miss["query_id"]).trace
            stage_spans = [s for s in trace.spans if s.name.startswith("serve.stage.")]
            assert [s.name for s in stage_spans] == [
                f"serve.stage.{name}" for name in STAGE_NAMES
            ]
            assert trace.meta == {
                "query_id": miss["query_id"],
                "client": "anonymous",
                "graph": "small",
                "engine": "peregrine",
            }
            trace.validate_nesting()

    def test_top_renders_one_row_per_declared_stage(self, small_graph):
        from repro.serve.top import TopDashboard

        server = make_server(small_graph, workers=0)
        try:
            server.handle(run_request())
            stats = server.handle({"op": "stats"})
        finally:
            server.close()
        dashboard = TopDashboard(client=_FakeClient(), stream=_Sink())
        frame = dashboard.render(stats)
        for name in STAGE_NAMES:
            (row,) = [
                line for line in frame.splitlines() if line.split()[:1] == [name]
            ]
            assert "n=1" in row


class _FakeClient:
    host, port = "127.0.0.1", 0


class _Sink:
    def write(self, text: str) -> None:
        pass

    def flush(self) -> None:
        pass


class TestFaultsFireInTheirStage:
    def test_every_kind_names_a_declared_stage_or_the_encoder(self):
        for kind in _QUERY_KINDS:
            stage = QueryFault(QueryFaultSpec(kind), 0).stage
            assert stage in STAGE_NAMES or stage == "encode"
        assert QueryFault(None, 0).stage is None

    @pytest.mark.parametrize("kind", ["crash", "slow", "hang"])
    def test_execution_kinds_fire_in_execute_only(
        self, small_graph, monkeypatch, kind
    ):
        fired_in = []
        real_fire = QueryFault.fire

        def spy(fault, stop=None):
            # The runner's frame holds the stage being walked.
            fired_in.append(sys._getframe(1).f_locals["stage"].name)
            return real_fire(fault, stop)

        monkeypatch.setattr(QueryFault, "fire", spy)
        plan = QueryFaultPlan({0: QueryFaultSpec(kind, seconds=0.05)})
        with make_server(
            small_graph,
            workers=1,
            chaos=plan,
            wall_budget_s=0.2,
            sample_interval=0.02,
            breaker_threshold=100,
        ) as server:
            response = server.handle(run_request(chaos_index=0))
            again = server.handle(run_request(chaos_index=0))  # attempt 1: clean
        assert fired_in == ["execute"]
        assert again["ok"] and not again.get("sentinel")
        if kind == "crash":
            assert "WorkerCrashError" in response["error"]
        elif kind == "slow":
            assert response["ok"] and not response["partial"]
        else:
            assert response["sentinel"] == "wall-budget"
        # Only execute carried the delay.
        histograms = server.metrics.histogram_snapshots()
        floor = 0.04 if kind == "slow" else 0.15
        if kind != "crash":
            assert histograms["serve.stage.execute"]["max"] >= floor
            for name in ("admit", "result_cache", "record"):
                assert histograms[f"serve.stage.{name}"]["max"] < floor

    @pytest.mark.parametrize("kind", ["corrupt", "torn-socket"])
    def test_wire_kinds_fire_in_encode_only(self, small_graph, kind):
        plan = QueryFaultPlan({0: QueryFaultSpec(kind, times=2)})
        with make_server(small_graph, workers=1, chaos=plan) as server:
            # Dict-level callers have no encoder: the answer is intact.
            assert server.handle(run_request(chaos_index=0))["ok"]
            with socket.create_connection((server.host, server.port)) as sock:
                stream = sock.makefile("rwb")
                protocol.write_message(stream, run_request(chaos_index=0))
                line = stream.readline()
        if kind == "corrupt":
            assert line.startswith(b"\x00")
        else:
            assert line == b""  # hung up unanswered

    def test_a_faulted_request_bypasses_the_result_cache(self, small_graph):
        plan = QueryFaultPlan({0: QueryFaultSpec("slow", seconds=0.01)})
        server = make_server(small_graph, workers=0, chaos=plan)
        try:
            assert not server.handle(run_request())["cached"]
            assert server.handle(run_request())["cached"]
            hits = server.metrics.value("serve.result_cache.hits")
            faulted = server.handle(run_request(chaos_index=0))
            assert faulted["ok"] and not faulted["cached"]
            assert server.metrics.value("serve.result_cache.hits") == hits
            # The plan advanced exactly one attempt: it replays unchanged.
            assert plan.begin(0) == (None, 1)
        finally:
            server.close()


#: The calls that record a served query: a histogram sample, a walk's
#: batch of samples and counts, a flight record.
_GUARDED = ("observe", "record_batch", "_record_flight")


def _observers(tree: ast.AST) -> dict[str, set[str]]:
    """Function name → the guarded calls (:data:`_GUARDED`) made
    directly in its body."""
    found: dict[str, set[str]] = {}

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _GUARDED:
                found.setdefault(function or "<module>", set()).add(node.func.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


class TestOnlyTheRunnerRecords:
    def test_only_the_runner_observes_or_records_flight(self):
        source = SERVER_SOURCE.read_text()
        found = _observers(ast.parse(source))
        assert set(found) == {"_walk"}, found
        assert found["_walk"] == {"record_batch", "_record_flight"}
        assert "_chaos" not in source

    def test_the_guard_sees_a_planted_timer(self):
        planted = ast.parse(
            "class S:\n"
            "    def _run(self, query):\n"
            "        self.metrics.observe('serve.latency.total', 1.0)\n"
            "        self.metrics.record_batch([('serve.stage.x', 1.0)])\n"
            "        self._record_flight(query)\n"
        )
        assert _observers(planted) == {"_run": set(_GUARDED)}


class _CountingLock:
    """A lock that counts how often it is held."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.holds = 0

    def __enter__(self):
        self.holds += 1
        return self.lock.__enter__()

    def __exit__(self, *exc_info):
        return self.lock.__exit__(*exc_info)


def _exchange(stream, line: bytes) -> dict:
    stream.write(line)
    stream.flush()
    return json.loads(stream.readline())


class TestHitsStayCheap:
    def test_a_hit_allocates_no_tracer(self, small_graph, monkeypatch):
        made = []

        class CountingTracer(server_module.Tracer):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(server_module, "Tracer", CountingTracer)
        server = make_server(small_graph, workers=0)
        try:
            assert not server.handle(run_request())["cached"]
            assert len(made) == 1
            for _ in range(3):
                assert server.handle(run_request())["cached"]
            assert len(made) == 1
        finally:
            server.close()

    def test_a_repeated_run_encodes_nothing_on_either_end(
        self, small_graph, monkeypatch
    ):
        """Counted, never timed: the client sends its memoized frame and
        the daemon answers with a spliced one."""
        with make_server(small_graph, workers=1) as server:
            client = repro.connect(port=server.port)
            pattern = repro.parse_pattern("a-b-c-a")  # no rendered text yet
            assert not client.run("small", pattern).cached
            calls = [
                count_calls(monkeypatch, parser_module, "format_pattern"),
                count_calls(monkeypatch, RunOptions, "to_dict"),
                count_calls(monkeypatch, json, "dumps"),
                count_calls(monkeypatch, json.JSONEncoder, "encode"),
            ]
            for _ in range(3):
                assert client.run("small", pattern).cached
            assert calls == [[], [], [], []]

    def test_a_socket_hit_is_spliced_not_encoded(self, small_graph, monkeypatch):
        with make_server(small_graph, workers=1) as server:
            frame = protocol.encode_message(run_request())
            with socket.create_connection((server.host, server.port)) as sock:
                stream = sock.makefile("rwb")
                stream.write(frame)
                stream.flush()
                assert not json.loads(stream.readline())["cached"]
                before = stage_counts(server)
                encodings = [
                    count_calls(monkeypatch, json, "dumps"),
                    count_calls(monkeypatch, json.JSONEncoder, "encode"),
                ]
                stream.write(frame)
                stream.flush()
                line = stream.readline()
                assert encodings == [[], []]
                monkeypatch.undo()
                hit = json.loads(line)
                assert hit["cached"] and line == protocol.encode_message(hit)
                stream.close()
            after = stage_counts(server)
        # The hit still walked admit, result_cache and record, and left
        # a cached flight record.
        assert {name: after[name] - before[name] for name in STAGE_NAMES} == {
            "admit": 1, "result_cache": 1, "queue": 0, "execute": 0, "record": 1
        }
        record = server.flight.find(hit["query_id"])
        assert record is not None and record.cached and record.status == "ok"

    def test_a_hit_makes_no_event_and_one_breaker_lookup(
        self, small_graph, monkeypatch
    ):
        server = make_server(small_graph, workers=0)  # no other thread
        try:
            assert not server.handle(run_request())["cached"]
            events = count_calls(monkeypatch, threading.Event, "__init__")
            lookups = count_calls(monkeypatch, server.breakers, "get")
            assert server.handle(run_request())["cached"]
            assert events == [] and lookups == ["get"]
        finally:
            server.close()

    def test_a_repeated_socket_hit_is_not_decoded(self, small_graph, monkeypatch):
        with make_server(small_graph, workers=1) as server:
            client = repro.connect(port=server.port)
            assert not client.run("small", TRIANGLE).cached
            assert client.run("small", TRIANGLE).cached
            decodes = count_calls(monkeypatch, json.JSONDecoder, "decode")
            for _ in range(3):
                assert client.run("small", TRIANGLE).cached
            # The client decodes each answer; the daemon decodes nothing.
            assert decodes == ["decode"] * 3
            monkeypatch.undo()
            assert server._requests.hits == 4

    def test_a_walk_holds_the_metrics_lock_once(self, small_graph):
        server = make_server(small_graph, workers=0)
        try:
            assert not server.handle(run_request())["cached"]
            before = server.metrics.histogram_snapshots()
            server.metrics._lock = counting = _CountingLock()
            assert server.handle(run_request())["cached"]
            assert counting.holds == 1
            after = server.metrics.histogram_snapshots()
        finally:
            server.close()
        grew = {
            name for name, summary in after.items()
            if summary["count"] != before.get(name, {}).get("count", 0)
        }
        assert grew == {
            "serve.stage.admit", "serve.stage.result_cache",
            "serve.stage.record", "serve.latency.first_result",
            "serve.latency.total",
        }
        assert server.metrics.value("serve.result_cache.hits") == 1
        assert server.metrics.value("serve.queries") == 2

    def test_only_plain_run_lines_are_kept(self, small_graph):
        kept = protocol.encode_message(run_request())
        skipped = [
            protocol.encode_message(request)
            for request in (
                {"op": "ping"},
                run_request(idempotency_key="k1"),
                run_request(chaos_index=0),
            )
        ]
        with make_server(small_graph, workers=1) as server:
            for bad in (b"\n", b"{not json\n", b"[1]\n"):
                with socket.create_connection((server.host, server.port)) as sock:
                    stream = sock.makefile("rwb")
                    answer = _exchange(stream, bad)
                    assert answer["error"].startswith("protocol-error")
                    assert stream.readline() == b""  # hung up
                    stream.close()
            with socket.create_connection((server.host, server.port)) as sock:
                stream = sock.makefile("rwb")
                for line in skipped * 2:
                    assert _exchange(stream, line)["ok"]
                assert len(server._requests) == 0
                for _ in range(2):
                    assert _exchange(stream, kept)["ok"]
                stream.close()
            assert server._requests.snapshot() == {kept: run_request()}
            assert server.handle({"op": "stats"})["caches"]["requests"] == {
                "entries": 1, "evictions": 0
            }

    def test_connections_share_one_memo(self, small_graph):
        """More connection threads than cores, switching as often as
        possible: every line is looked up once, each distinct line is
        kept once, and every answer is right."""
        patterns = [TRIANGLE, repro.parse_pattern("a-b-c"), repro.parse_pattern("a-b")]
        oracle = repro.run(small_graph, patterns).results
        errors: list[BaseException] = []
        with make_server(small_graph, workers=1) as server:
            client = repro.connect(port=server.port)

            def caller(index: int) -> None:
                try:
                    for call in range(50):
                        pattern = patterns[(index + call) % 3]
                        answer = client.run("small", pattern).results[pattern]
                        assert answer == oracle[pattern]
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
            memo = server._requests
            # Every line is looked up: 200 runs and ``connect``'s ping.
            assert len(memo) == 3 and memo.hits + memo.misses == 201

    def test_the_memo_evicts_at_its_capacity(self, small_graph):
        from repro.morph.cache import STORE_CAPACITY

        with make_server(small_graph, workers=1) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                stream = sock.makefile("rwb")
                for index in range(STORE_CAPACITY + 1):
                    line = protocol.encode_message(run_request(client=f"c{index}"))
                    assert _exchange(stream, line)["ok"]
                    if index == STORE_CAPACITY - 1:
                        assert server._requests.evictions == 0
                stream.close()
            caches = server.handle({"op": "stats"})["caches"]
        assert caches["requests"] == {"entries": STORE_CAPACITY, "evictions": 1}

    def test_an_over_long_line_is_answered_but_never_kept(self, small_graph):
        limit = server_module._REQUEST_MEMO_LINE_BYTES
        short = protocol.encode_message(run_request())
        long = protocol.encode_message(run_request(client="c" * limit))
        assert len(short) <= limit < len(long)
        with make_server(small_graph, workers=1) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                stream = sock.makefile("rwb")
                answers = [_exchange(stream, short)]
                for _ in range(2):
                    answers.append(_exchange(stream, long))
                    assert len(server._requests) == 1
                answers.append(_exchange(stream, short))
                stream.close()
            assert server._requests.hits == 1  # the second short line
            assert server._requests.snapshot() == {short: run_request()}
        assert [a["cached"] for a in answers] == [False, True, True, True]
        assert all(a["results"] == answers[0]["results"] for a in answers)


#: The fields of a ``run`` request whose values send it down every path:
#: hits, misses, replays, bad options, refusals and injected faults.
_RUN_FIELDS = st.fixed_dictionaries(
    {
        "graph": st.sampled_from(["small"] * 4 + ["no-such-graph"]),
        "patterns": st.sampled_from(
            [["a-b-c-a"], ["a-b-c"], ["a-b-c-a", "a-b-c"]] * 2 + [[]]
        ),
    },
    optional={
        "options": st.sampled_from([
            {}, {"margin": 1}, {"aggregation": "exists"}, {"morph": False},
            {"deadline_seconds": 1e-9}, {"bogus": 1}, {"workers": True}, None,
        ]),
        "idempotency_key": st.sampled_from(["k1", "k2"]),
        "chaos_index": st.integers(0, 5),
        "priority": st.integers(0, 2),
        "use_result_cache": st.booleans(),
        "client": st.sampled_from(["a", "b"]),
    },
)


class FakeClock:
    """Deterministic monotonic clock for deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def wait_until(condition, timeout: float = 10.0) -> None:
    stop = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < stop, "condition never held"
        time.sleep(0.002)


class TestOneThreadPerQuery:
    def test_start_spawns_only_the_listener_and_the_sampler(self, small_graph):
        before = set(threading.enumerate())
        with make_server(small_graph, workers=3) as server:
            spawned = set(threading.enumerate()) - before
            assert sorted(thread.name for thread in spawned) == [
                "repro-serve-listener", "repro-serve-sampler"
            ]
            assert server.scheduler.slots == 3

    def test_a_socket_miss_walks_in_order_and_records_once(
        self, small_graph, monkeypatch
    ):
        with make_server(small_graph, workers=1) as server:
            client = repro.connect(port=server.port)
            batches = count_calls(monkeypatch, server.metrics, "record_batch")
            miss = client.run("small", TRIANGLE)
            assert not miss.cached
            # One walk, one batch of samples and counts: it takes the
            # metrics lock for its recording once.
            assert batches == ["record_batch"]
            monkeypatch.undo()
            record = server.flight.find(miss.query_id)
        marks = [
            span for span in record.trace.spans
            if span.name.startswith("serve.stage.")
        ]
        assert [span.name for span in marks] == [
            f"serve.stage.{name}" for name in STAGE_NAMES
        ]
        for earlier, later in zip(marks, marks[1:]):
            assert earlier.start <= earlier.end <= later.start
        histograms = server.metrics.histogram_snapshots()
        # Queue wait and every stage sampled once, by the one walk.
        for name in ["serve.latency.queue_wait"] + [
            f"serve.stage.{name}" for name in STAGE_NAMES
        ]:
            assert histograms[name]["count"] == 1

    def test_a_miss_makes_no_event(self, small_graph, monkeypatch):
        server = make_server(small_graph, workers=1)
        try:
            events = count_calls(monkeypatch, threading.Event, "__init__")
            assert not server.handle(run_request())["cached"]
            assert events == []
        finally:
            server.close()

    @pytest.mark.parametrize("wall_budget_s, left", [(None, 2.0), (1.0, 1.0)])
    def test_a_served_deadline_counts_from_admission(
        self, small_graph, monkeypatch, wall_budget_s, left
    ):
        clock = FakeClock()
        server = make_server(
            small_graph, workers=1, clock=clock, wall_budget_s=wall_budget_s
        )
        armed = []
        watch = server.sentinels.watch

        def spy(query_id, deadline=None):
            sentinel = watch(query_id, deadline)
            armed.append(sentinel.deadline.remaining())
            return sentinel

        monkeypatch.setattr(server.sentinels, "watch", spy)
        answers = []
        try:
            holder = Query({}, client="holder")
            assert server.scheduler.submit(holder) == "accepted"
            # Admitted at t=0 with 5 s, granted at t=3: 2 s are left.
            waiter = threading.Thread(
                target=lambda: answers.append(
                    server.handle(run_request(options={"deadline_seconds": 5.0}))
                )
            )
            waiter.start()
            wait_until(lambda: server.scheduler.depth == 1)
            clock.now = 3.0
            server.scheduler.release(holder)
            waiter.join(timeout=30)
        finally:
            server.close()
        assert armed == [left]
        assert answers[0]["ok"] and not answers[0]["partial"]


class TestRequestsAreReadOnly:
    """The socket handler hands one decoded dict to every repeat of a
    line, so no stage may write into ``query.request``: ``handle``
    leaves every request deep-equal to a copy taken before the call."""

    @settings(max_examples=60, deadline=None)
    @given(
        requests=st.lists(_RUN_FIELDS, min_size=1, max_size=4),
        then=st.sampled_from(["accepting", "draining", "circuit-open"]),
    )
    def test_handle_writes_nothing_into_a_request(self, small_graph, requests, then):
        plan = QueryFaultPlan({
            0: QueryFaultSpec("crash"),
            1: QueryFaultSpec("slow", seconds=0.001),
            2: QueryFaultSpec("corrupt"),
        })
        server = make_server(small_graph, workers=0, chaos=plan, breaker_threshold=1)
        answers = []

        def handle(request: dict) -> None:
            before = copy.deepcopy(request)
            answers.append(server.handle(request))
            assert repr(request) == repr(before)

        try:
            requests = [{"op": "run", **fields} for fields in requests]
            for request in requests:  # misses, failures, bad options
                handle(request)
            if then == "draining":
                server.scheduler.set_draining(True)
            elif then == "circuit-open":
                server.breakers.get("small", "peregrine").record_failure()
            for request in requests:  # hits, replays, refusals
                handle(request)
        finally:
            server.close()
        assert all("ok" in answer for answer in answers)


class TestOneDrainRecord:
    def test_the_server_reads_the_schedulers_lifecycle(self, small_graph, tmp_path):
        server = make_server(small_graph, workers=0)
        assert server.drain_state == server.scheduler.state == "accepting"
        assert server.handle({"op": "stats"})["service"]["state"] == "accepting"
        assert server.scheduler.set_draining(True)
        assert server.drain_state == "draining"
        assert server.handle(run_request())["error"] == "rejected:draining"
        assert not server.scheduler.set_draining(True)  # already draining
        assert server.scheduler.set_draining(False)
        summary = server.drain(dump_dir=str(tmp_path))
        assert summary["state"] == server.drain_state == "closed"
        assert server.drain(dump_dir=str(tmp_path)) == {
            "state": "closed",
            "drained": False,
        }
        assert not server.scheduler.set_draining(True)  # closed stays closed
        health = server.handle({"op": "health"})
        assert health["ok"] and health["status"] == "ok"
