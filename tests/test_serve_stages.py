"""The served ``run`` op is one declared stage list walked by one runner.

:data:`repro.serve.server.STAGES` names the path of every served query
(admit → result_cache → queue → execute → record), and
``MiningServer._walk`` is the only code that times, traces, faults and
records it. These tests pin what that buys: every declared stage has a
histogram, a worker-run query has one span per stage it walked, a chaos
fault fires in the stage its kind names and nowhere else, the server
module keeps no timer or flight record outside the runner, and a
result-cache hit costs no tracer.
"""

from __future__ import annotations

import ast
import socket
import sys
from pathlib import Path

import pytest

import repro
from repro.core.atlas import TRIANGLE
from repro.serve import GraphRegistry, MiningServer, protocol, validate_stats
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


def _observers(tree: ast.AST) -> dict[str, set[str]]:
    """Function name → the guarded calls (``.observe``, ``_record_flight``)
    made directly in its body."""
    found: dict[str, set[str]] = {}

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("observe", "_record_flight"):
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
        assert found["_walk"] == {"observe", "_record_flight"}
        assert "_chaos" not in source

    def test_the_guard_sees_a_planted_timer(self):
        planted = ast.parse(
            "class S:\n"
            "    def _run(self, query):\n"
            "        self.metrics.observe('serve.latency.total', 1.0)\n"
            "        self._record_flight(query)\n"
        )
        assert _observers(planted) == {"_run": {"observe", "_record_flight"}}


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
