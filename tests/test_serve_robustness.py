"""Tests for the hardened resident service (shed/sentinel/breaker/drain).

Every robustness mechanism is exercised deterministically: the shed
controller is a pure function of (histogram state, queue depth), the
circuit breaker and sentinels run on injectable fake clocks, drain and
warm restart round-trip through a temp journal, and the protocol-error
handler answers garbage with a typed response over a real socket. No
test reads the wall clock or an unseeded RNG for its verdicts.
"""

from __future__ import annotations

import json
import random
import socket

import pytest

import repro
from repro.core.atlas import TRIANGLE
from repro.engines.recovery import Deadline
from repro.observe.metrics import MetricsRegistry
from repro.options import RunOptions
from repro.serve import (
    AdmissionPolicy,
    BreakerBoard,
    CircuitBreaker,
    Client,
    GraphRegistry,
    MiningServer,
    Query,
    QueryScheduler,
    SentinelBoard,
    ServeRejected,
    ShedController,
    validate_stats,
)
from repro.serve.client import RetryPolicy
from repro.serve.shed import LATENCY_METRIC
from repro.testing.faults import QueryFaultPlan, QueryFaultSpec


class FakeClock:
    """Deterministic monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def tri_text() -> str:
    return repro.format_pattern(TRIANGLE)


# ---------------------------------------------------------------------------
# shed controller


class TestShedController:
    def _metrics_with_latencies(self, values) -> MetricsRegistry:
        metrics = MetricsRegistry()
        for value in values:
            metrics.observe(LATENCY_METRIC, value)
        return metrics

    def test_disabled_controller_always_admits(self):
        controller = ShedController(
            self._metrics_with_latencies([10.0] * 50), slo_p99=None
        )
        decision = controller.evaluate(priority=0, queue_depth=1000)
        assert not decision.shed
        assert controller.shed_total == 0

    def test_cold_start_admits_until_min_samples(self):
        metrics = self._metrics_with_latencies([10.0] * 7)
        controller = ShedController(metrics, slo_p99=0.5, min_samples=8)
        assert not controller.evaluate(priority=0, queue_depth=0).shed
        metrics.observe(LATENCY_METRIC, 10.0)  # 8th sample: signal is real
        decision = controller.evaluate(priority=0, queue_depth=0)
        assert decision.shed and decision.reason == "slo-p99"

    def test_protected_priority_never_shed(self):
        controller = ShedController(
            self._metrics_with_latencies([10.0] * 50),
            slo_p99=0.5,
            protect_priority=1,
        )
        assert not controller.evaluate(priority=1, queue_depth=50).shed
        assert not controller.evaluate(priority=7, queue_depth=50).shed
        assert controller.evaluate(priority=0, queue_depth=50).shed

    def test_verdict_is_deterministic_given_histogram_state(self):
        """Same histogram + same depth -> byte-identical decision, always."""
        controller = ShedController(
            self._metrics_with_latencies([0.1] * 20 + [3.0] * 5), slo_p99=0.5
        )
        decisions = [
            controller.evaluate(priority=0, queue_depth=4) for _ in range(5)
        ]
        assert all(d.shed for d in decisions)
        assert len({(d.reason, d.retry_after_s, d.p99) for d in decisions}) == 1

    def test_queue_infeasible_reason_without_slow_tail(self):
        """A fast histogram but a hopeless backlog sheds on feasibility."""
        controller = ShedController(
            self._metrics_with_latencies([0.01] * 20),
            slo_p99=0.5,
            estimated_service_seconds=0.2,
        )
        assert not controller.evaluate(priority=0, queue_depth=2).shed
        decision = controller.evaluate(priority=0, queue_depth=10)
        assert decision.shed and decision.reason == "queue-infeasible"

    def test_retry_after_scales_with_backlog_and_floors(self):
        controller = ShedController(
            self._metrics_with_latencies([0.1] * 10 + [9.0]),
            slo_p99=0.5,
            retry_after_floor=0.25,
        )
        shallow = controller.evaluate(priority=0, queue_depth=1)
        deep = controller.evaluate(priority=0, queue_depth=100)
        assert shallow.shed and deep.shed
        assert deep.retry_after_s >= shallow.retry_after_s >= 0.25

    def test_snapshot_counts_by_reason(self):
        controller = ShedController(
            self._metrics_with_latencies([10.0] * 20), slo_p99=0.5
        )
        for _ in range(3):
            controller.evaluate(priority=0, queue_depth=0)
        snapshot = controller.snapshot()
        assert snapshot["shed_total"] == 3
        assert snapshot["by_reason"] == {"slo-p99": 3}
        assert snapshot["slo_p99"] == 0.5

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="slo_p99"):
            ShedController(MetricsRegistry(), slo_p99=0.0)
        with pytest.raises(ValueError, match="min_samples"):
            ShedController(MetricsRegistry(), min_samples=0)


# ---------------------------------------------------------------------------
# circuit breaker


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=5.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(5.0)
        clock.advance(5.0)
        assert breaker.allow()  # the probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # only one concurrent probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=2.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # cool-down restarted
        assert breaker.retry_after() == pytest.approx(2.0)

    def test_transition_callback_sees_every_edge(self):
        clock = FakeClock()
        seen = []
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_seconds=1.0,
            clock=clock,
            on_transition=lambda old, new: seen.append((old, new)),
        )
        breaker.record_failure()
        clock.advance(1.0)
        breaker.allow()
        breaker.record_success()
        assert seen == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_board_isolates_cells_and_labels_transitions(self):
        clock = FakeClock()
        seen = []
        board = BreakerBoard(
            failure_threshold=1,
            clock=clock,
            on_transition=lambda cell, old, new: seen.append((cell, old, new)),
        )
        board.get("g1", "peregrine").record_failure()
        assert board.get("g1", "peregrine").state == "open"
        assert board.get("g1", "bigjoin").state == "closed"
        assert board.get("g2", "peregrine").state == "closed"
        assert seen == [("g1/peregrine", "closed", "open")]
        snapshot = board.snapshot()
        assert snapshot["g1/peregrine"]["state"] == "open"
        assert snapshot["g1/peregrine"]["transitions"] == 1


# ---------------------------------------------------------------------------
# sentinels


class TestSentinels:
    def test_no_budgets_and_no_deadline_arms_nothing(self):
        clock = FakeClock()
        board = SentinelBoard(clock=clock)
        assert board.watch("q1", None) is None
        # A deadline is enforceable.
        assert board.watch("q2", Deadline(3.0, clock=clock)) is not None

    def test_wall_budget_trips_via_poll(self):
        clock = FakeClock()
        board = SentinelBoard(clock=clock, wall_budget_s=2.0)
        sentinel = board.watch("q1", None)
        assert board.poll() == []
        clock.advance(2.5)
        assert board.poll() == [("q1", "wall-budget")]
        assert sentinel.tripped == "wall-budget"
        assert sentinel.deadline.expired()
        assert sentinel.deadline.expiry_reason == "wall-budget"
        assert board.poll() == []  # idempotent: a trip fires once
        assert board.snapshot()["trips"] == {"wall-budget": 1}

    def test_rss_growth_budget_trips_with_fake_reader(self):
        clock = FakeClock()
        rss = {"value": 1_000}
        board = SentinelBoard(
            clock=clock,
            rss_budget_bytes=1_000,
            rss_reader=lambda: rss["value"],
        )
        sentinel = board.watch("q1", None)
        assert sentinel.rss_start == 1_000
        rss["value"] = 1_500  # growth 500 < budget
        assert board.poll() == []
        rss["value"] = 2_500  # growth 1500 > budget
        assert board.poll() == [("q1", "rss-budget")]
        assert sentinel.deadline.expiry_reason == "rss-budget"

    def test_rss_budget_charges_only_the_largest_grower(self):
        """One process RSS, two queries: the idle one is not charged."""
        clock = FakeClock()
        mb = 1 << 20
        rss = {"value": 100 * mb}
        board = SentinelBoard(
            clock=clock, rss_budget_bytes=50 * mb, rss_reader=lambda: rss["value"]
        )
        grower = board.watch("q-a", None)
        rss["value"] += 30 * mb  # q-a allocates
        idle = board.watch("q-b", None)
        assert idle.rss_start == 130 * mb
        rss["value"] += 60 * mb  # q-a again; q-b allocates nothing
        assert board.poll() == [("q-a", "rss-budget")]
        assert grower.tripped == "rss-budget"
        assert idle.tripped is None
        # Until q-a's memory is returned the process stays large: the
        # survivor is charged only for growth after the trip.
        assert board.poll() == []
        rss["value"] += 40 * mb
        assert board.poll() == []
        rss["value"] += 20 * mb
        assert board.poll() == [("q-b", "rss-budget")]
        assert board.snapshot()["trips"] == {"rss-budget": 2}

    def test_effective_deadline_is_the_tighter_bound(self):
        clock = FakeClock()
        board = SentinelBoard(clock=clock, wall_budget_s=5.0)
        own = Deadline(2.0, clock=clock)
        tight = board.watch("q1", own)
        loose = board.watch("q2", Deadline(10.0, clock=clock))
        assert tight.deadline is own  # the query's own deadline, not a copy
        assert loose.deadline.remaining() == pytest.approx(5.0)

    def test_finish_disarms(self):
        clock = FakeClock()
        board = SentinelBoard(clock=clock, wall_budget_s=1.0)
        board.watch("q1", None)
        assert board.snapshot()["active"] == 1
        assert board.finish("q1") is not None
        clock.advance(5.0)
        assert board.poll() == []  # nothing left to trip
        assert board.finish("q1") is None

    def test_partial_rss_information_never_cancels(self):
        """Budget + baseline + sample are all required to trip on RSS."""
        clock = FakeClock()
        board = SentinelBoard(
            clock=clock, rss_budget_bytes=100, rss_reader=lambda: None
        )
        sentinel = board.watch("q1", None)
        assert sentinel.rss_start is None
        assert board.poll() == []
        assert sentinel.tripped is None


# ---------------------------------------------------------------------------
# scheduler: drain + anti-starvation


def hold_slot(scheduler: QueryScheduler) -> Query:
    """Submit a query that takes the free slot, so later ones queue."""
    holder = Query({"tag": "holder"}, client="holder")
    assert scheduler.submit(holder) == "accepted"
    assert scheduler.acquire(holder) is None
    return holder


class TestSchedulerRobustness:
    def test_draining_rejects_new_work_but_keeps_queued_work(self):
        scheduler = QueryScheduler(slots=1)
        holder = hold_slot(scheduler)
        queued = Query({"tag": "early"})
        assert scheduler.submit(queued) == "accepted"
        scheduler.set_draining(True)
        assert scheduler.submit(Query({})) == "rejected:draining"
        assert scheduler.metrics.value("serve.admission.rejected.draining") == 1
        scheduler.release(holder)
        assert scheduler.acquire(queued) is None and queued.holds_slot
        assert scheduler.snapshot()["draining"] is True

    def test_shed_verdict_wired_through_submit(self):
        metrics = MetricsRegistry()
        for _ in range(20):
            metrics.observe(LATENCY_METRIC, 10.0)
        shed = ShedController(metrics, slo_p99=0.5)
        scheduler = QueryScheduler(metrics=metrics, shed=shed)
        low = Query({}, priority=0)
        assert scheduler.submit(low) == "rejected:overload"
        assert low.retry_after_s is not None and low.retry_after_s > 0
        assert scheduler.submit(Query({}, priority=1)) == "accepted"
        assert metrics.value("serve.shed.slo-p99") == 1
        assert metrics.value("serve.admission.rejected.overload") == 1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_priority_stream_cannot_starve_feasible_deadline(self, seed):
        """Property: under a continuous high-priority stream, a queued
        low-priority query with a feasible deadline is dispatched before
        the deadline-feasibility bound passes (urgent pre-emption)."""
        rng = random.Random(seed)
        clock = FakeClock()
        estimate = 1.0
        scheduler = QueryScheduler(
            policy=AdmissionPolicy(
                max_queue_depth=4096,
                max_per_client=4096,
                estimated_service_seconds=estimate,
            ),
            clock=clock,
            slots=1,
        )
        holder = hold_slot(scheduler)
        victim = Query(
            {"tag": "victim"}, priority=0,
            deadline=scheduler.make_deadline(5.0),
        )
        assert scheduler.submit(victim) == "accepted"
        queries = [victim]
        executed = []
        for _ in range(20):
            for _ in range(rng.randint(1, 3)):
                noise = Query({"tag": "noise"}, priority=10)
                scheduler.submit(noise)
                queries.append(noise)
            # One service time per grant: the holder finishes, the next
            # query takes its slot.
            scheduler.release(holder)
            (holder,) = [query for query in queries if query.holds_slot]
            executed.append(holder.request["tag"])
            clock.advance(estimate)
            if victim.holds_slot:
                break
        assert victim.holds_slot and victim.refusal is None
        assert "victim" in executed
        assert scheduler.metrics.value("serve.scheduler.urgent_dispatch") >= 1

    def test_urgent_scan_ignores_already_expired(self):
        """Expired queries are not urgent: the existing dispatch check
        rejects them with the exact established response shape."""
        clock = FakeClock()
        scheduler = QueryScheduler(
            policy=AdmissionPolicy(estimated_service_seconds=1.0),
            clock=clock,
            slots=1,
        )
        holder = hold_slot(scheduler)
        doomed = Query({}, deadline=scheduler.make_deadline(10.0))
        assert scheduler.submit(doomed) == "accepted"
        clock.advance(11.0)
        scheduler.release(holder)
        assert scheduler.acquire(doomed) == {
            "ok": False,
            "error": "rejected:deadline",
            "admission": "rejected:deadline",
        }
        assert not doomed.holds_slot
        assert scheduler.metrics.value("serve.scheduler.urgent_dispatch", 0) == 0


# ---------------------------------------------------------------------------
# server integration (dict-level, workers=0, fake clock)


@pytest.fixture()
def sync_server(small_graph):
    """Threadless server over ``small_graph`` with a fake clock."""
    clock = FakeClock()
    registry = GraphRegistry()
    registry.add("small", small_graph)
    server = MiningServer(registry=registry, workers=0, clock=clock)
    server.clock = clock  # test-side handle
    yield server
    server.close()


class TestServerRobustness:
    def test_stats_schema_v3_validates(self, sync_server):
        stats = sync_server.handle({"op": "stats"})
        validate_stats(stats)
        assert stats["schema_version"] == 3
        assert stats["service"]["state"] == "accepting"
        assert stats["shed"]["shed_total"] == 0
        assert stats["sentinels"]["active"] == 0
        assert stats["breakers"] == {}

    def test_overload_rejection_carries_retry_hint(self, small_graph):
        clock = FakeClock()
        registry = GraphRegistry()
        registry.add("small", small_graph)
        server = MiningServer(
            registry=registry, workers=0, clock=clock, slo_p99=0.5
        )
        try:
            for _ in range(20):
                server.metrics.observe(LATENCY_METRIC, 10.0)
            response = server.handle(
                {"op": "run", "graph": "small", "patterns": [tri_text()]}
            )
            assert response["ok"] is False
            assert response["error"] == "rejected:overload"
            assert response["retry_after_s"] > 0
            # Priority above the protection threshold still flows.
            protected = server.handle(
                {
                    "op": "run",
                    "graph": "small",
                    "patterns": [tri_text()],
                    "priority": 1,
                }
            )
            assert protected["ok"] is True
        finally:
            server.close()

    def test_idempotent_replay_returns_identical_response(self, sync_server):
        request = {
            "op": "run",
            "graph": "small",
            "patterns": [tri_text()],
            "idempotency_key": "c1:1:abc",
            "use_result_cache": False,
        }
        first = sync_server.handle(dict(request))
        second = sync_server.handle(dict(request))
        assert first["ok"] and second == first  # same query_id, same bytes
        assert sync_server.metrics.value("serve.idempotent.replays") == 1

    def test_chaos_crash_opens_breaker_then_probe_closes_it(self, small_graph):
        clock = FakeClock()
        registry = GraphRegistry()
        registry.add("small", small_graph)
        chaos = QueryFaultPlan({0: QueryFaultSpec("crash", times=None)})
        server = MiningServer(
            registry=registry,
            workers=0,
            clock=clock,
            chaos=chaos,
            breaker_threshold=2,
            breaker_reset_s=5.0,
        )
        try:
            request = {
                "op": "run",
                "graph": "small",
                "patterns": [tri_text()],
                "chaos_index": 0,
            }
            for _ in range(2):
                response = server.handle(dict(request))
                assert "WorkerCrashError" in response["error"]
            # Breaker open: fail fast with the typed verdict + hint.
            fast = server.handle(dict(request))
            assert fast["error"] == "rejected:circuit-open"
            assert fast["retry_after_s"] == pytest.approx(5.0)
            stats = server.handle({"op": "stats"})
            assert stats["breakers"]["small/peregrine"]["state"] == "open"
            assert stats["metrics"]["serve.breaker.transition.open"] == 1
            # Cool-down elapses; a clean probe (no fault) closes it.
            clock.advance(5.0)
            probe = server.handle(
                {"op": "run", "graph": "small", "patterns": [tri_text()]}
            )
            assert probe["ok"] is True
            assert server.breakers.get("small", "peregrine").state == "closed"
            assert (
                server.metrics.value("serve.breaker.transition.closed") == 1
            )
            # The transitions also landed in the flight recorder.
            notes = [r.error for r in server.flight.anomalies()]
            assert any("closed -> open" in (n or "") for n in notes)
        finally:
            server.close()

    def test_drain_rejects_then_persists_then_closes(self, small_graph, tmp_path):
        registry = GraphRegistry()
        registry.load("mico")
        state_path = str(tmp_path / "state.jsonl")
        server = MiningServer(
            registry=registry,
            workers=0,
            state_path=state_path,
            drain_deadline_s=2.0,
        )
        warm = server.handle(
            {"op": "run", "graph": "mico", "patterns": [tri_text()]}
        )
        assert warm["ok"] is True
        summary = server.drain(dump_dir=str(tmp_path / "flight"))
        assert summary["drained"] is True
        assert summary["state"] == "closed"
        assert summary["state_entries"] >= 2  # the graph + the result
        assert summary["flight_files"] >= 1
        rejected = server.handle(
            {"op": "run", "graph": "mico", "patterns": [tri_text()]}
        )
        assert rejected["error"] == "rejected:draining"
        # Idempotent: a second drain reports, never re-drains.
        assert server.drain() == {"state": "closed", "drained": False}
        assert server.metrics.value("serve.drain.started") == 1

        # Warm restart: a fresh incarnation resumes graphs + results.
        second = MiningServer(registry=GraphRegistry(), workers=0)
        try:
            resumed = second.resume_from(state_path)
            assert resumed["graphs"] == ["mico"]
            assert resumed["results"] == 1
            hit = second.handle(
                {"op": "run", "graph": "mico", "patterns": [tri_text()]}
            )
            assert hit["ok"] is True and hit["cached"] is True
            assert hit["results"] == warm["results"]
        finally:
            second.close()

    def test_resume_skips_vanished_graphs(self, tmp_path):
        from repro.serve import save_service_state

        path = str(tmp_path / "state.jsonl")
        save_service_state(path, graphs=["no-such-graph-anywhere"], result_cache={})
        server = MiningServer(registry=GraphRegistry(), workers=0)
        try:
            with pytest.warns(RuntimeWarning, match="no-such-graph"):
                resumed = server.resume_from(path)
            assert resumed["failed"] == ["no-such-graph-anywhere"]
            assert resumed["graphs"] == []
        finally:
            server.close()

    def test_resume_from_missing_journal_raises(self, tmp_path):
        server = MiningServer(registry=GraphRegistry(), workers=0)
        try:
            with pytest.raises(FileNotFoundError):
                server.resume_from(str(tmp_path / "nope.jsonl"))
        finally:
            server.close()


# ---------------------------------------------------------------------------
# state journal


class TestServiceStateJournal:
    def test_round_trip(self, tmp_path):
        from repro.serve import load_service_state, save_service_state

        path = str(tmp_path / "state.jsonl")
        key = ("fp", ("a-b-c-a",), "count", "peregrine", "auto", True, 0.1, 1, None)
        entries = save_service_state(
            path, graphs=["mico", "g2"], result_cache={key: {"ok": True, "x": 1}}
        )
        assert entries == 3
        state = load_service_state(path)
        assert state.graphs == ["mico", "g2"]
        assert state.results == {key: {"ok": True, "x": 1}}
        assert state.skipped == 0
        assert state.meta["version"] == 1

    def test_torn_tail_degrades_to_skipped_lines(self, tmp_path):
        from repro.serve import load_service_state, save_service_state

        path = str(tmp_path / "state.jsonl")
        key = ("fp", ("t",), "count", "peregrine", "auto", True, 0.1, 1, None)
        save_service_state(path, graphs=["g"], result_cache={key: {"ok": True}})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "result", "key": {"trunc')  # torn mid-write
        state = load_service_state(path)
        assert state.graphs == ["g"]
        assert len(state.results) == 1
        assert state.skipped == 1

    def test_future_version_refused(self, tmp_path):
        path = str(tmp_path / "state.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "meta", "version": 99}) + "\n")
        from repro.serve import load_service_state

        with pytest.raises(ValueError, match="version 99"):
            load_service_state(path)


# ---------------------------------------------------------------------------
# client resilience (no sockets: _checked is stubbed)


class TestRetryPolicy:
    def test_resolve_int_sets_budget(self):
        assert RetryPolicy.resolve(5).max_retries == 5

    def test_resolve_instance_passthrough(self):
        policy = RetryPolicy(max_retries=1)
        assert RetryPolicy.resolve(policy) is policy

    def test_resolve_rejects_bool_and_junk(self):
        with pytest.raises(TypeError):
            RetryPolicy.resolve(True)
        with pytest.raises(TypeError):
            RetryPolicy.resolve("twice")

    def test_delay_is_deterministic_and_grows(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_factor=2.0, jitter=0.25)
        first = policy.delay(1)
        assert first == policy.delay(1), "jitter must be seeded"
        assert RetryPolicy(seed=1).delay(1) != RetryPolicy(seed=2).delay(1)
        assert 0.1 <= first <= 0.1 * 1.25
        assert 0.2 <= policy.delay(2) <= 0.2 * 1.25

    def test_is_the_public_policy(self):
        assert repro.RetryPolicy is RetryPolicy


class TestClientResilience:
    def _client(self, policy: RetryPolicy) -> Client:
        return Client(port=9, retry=policy)

    def test_retry_honors_server_backoff_hint(self):
        sleeps: list[float] = []
        policy = RetryPolicy(
            max_retries=2, backoff_seconds=0.01, jitter=0.0, sleep=sleeps.append
        )
        client = self._client(policy)
        attempts = {"n": 0}

        def fake_checked(payload):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise ServeRejected(
                    "run", "rejected:overload", retry_after_s=0.5
                )
            return {"ok": True}

        client._checked = fake_checked
        assert client._checked_with_retry({"op": "run"}) == {"ok": True}
        assert sleeps == [0.5]  # the hint dominates the schedule

    def test_permanent_rejection_raises_immediately(self):
        policy = RetryPolicy(max_retries=5, sleep=lambda _s: None)
        client = self._client(policy)
        attempts = {"n": 0}

        def fake_checked(payload):
            attempts["n"] += 1
            raise ServeRejected("run", "rejected:deadline")

        client._checked = fake_checked
        with pytest.raises(ServeRejected, match="rejected:deadline"):
            client._checked_with_retry({"op": "run"})
        assert attempts["n"] == 1

    def test_transient_transport_failures_retry_until_budget(self):
        sleeps: list[float] = []
        policy = RetryPolicy(
            max_retries=2, backoff_seconds=0.01, jitter=0.0, sleep=sleeps.append
        )
        client = self._client(policy)
        attempts = {"n": 0}

        def fake_checked(payload):
            attempts["n"] += 1
            raise ConnectionError("torn")

        client._checked = fake_checked
        with pytest.raises(ConnectionError):
            client._checked_with_retry({"op": "run"})
        assert attempts["n"] == 3  # initial + 2 retries
        assert len(sleeps) == 2

    def test_worker_crash_error_is_retryable(self):
        policy = RetryPolicy(max_retries=1, jitter=0.0, sleep=lambda _s: None)
        client = self._client(policy)
        attempts = {"n": 0}

        def fake_checked(payload):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError(
                    "server rejected 'run': WorkerCrashError: injected"
                )
            return {"ok": True}

        client._checked = fake_checked
        assert client._checked_with_retry({"op": "run"}) == {"ok": True}

    def test_no_policy_means_no_retries(self):
        client = Client(port=9)  # retry=None: pre-hardening behavior
        assert client.retry is None

        def fake_checked(payload):
            raise ServeRejected("run", "rejected:overload", retry_after_s=0.1)

        client._checked = fake_checked
        with pytest.raises(ServeRejected):
            client._checked_with_retry({"op": "run"})

    def test_idempotency_keys_are_unique_and_deterministic_in_shape(self):
        client = Client(port=9, client_id="c7", retry=1)
        first = client._next_idempotency_key({"op": "run", "graph": "g"})
        second = client._next_idempotency_key({"op": "run", "graph": "g"})
        assert first != second  # the per-client sequence separates repeats
        assert first.startswith("c7:1:") and second.startswith("c7:2:")
        assert len(first.split(":")[2]) == 16

    def test_seeded_backoff_schedule_replays(self):
        sleeps_a: list[float] = []
        sleeps_b: list[float] = []
        for sleeps in (sleeps_a, sleeps_b):
            policy = RetryPolicy(
                max_retries=3, backoff_seconds=0.01, seed=42, sleep=sleeps.append
            )
            client = self._client(policy)
            client._checked = lambda payload: (_ for _ in ()).throw(
                ServeRejected("run", "rejected:queue-full")
            )
            with pytest.raises(ServeRejected):
                client._checked_with_retry({"op": "run"})
        assert sleeps_a == sleeps_b  # fixed seed, fixed schedule


# ---------------------------------------------------------------------------
# protocol-error handling over a real socket


class TestProtocolErrors:
    def test_garbage_request_gets_typed_response(self, small_graph):
        registry = GraphRegistry()
        registry.add("small", small_graph)
        with MiningServer(registry=registry, workers=1) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                stream = sock.makefile("rwb")
                stream.write(b"this is not json\n")
                stream.flush()
                line = stream.readline()
                response = json.loads(line)
            assert response["ok"] is False
            assert response["error"].startswith("protocol-error")
            assert server.metrics.value("serve.protocol.errors") == 1
            notes = [r.error for r in server.flight.anomalies()]
            assert any("protocol-error" in (n or "") for n in notes)
            # The daemon survived: a well-formed client still works.
            client = Client(port=server.port)
            assert client.ping()

    def test_non_object_json_line_also_answered(self, small_graph):
        registry = GraphRegistry()
        registry.add("small", small_graph)
        with MiningServer(registry=registry, workers=1) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                stream = sock.makefile("rwb")
                stream.write(b"[1, 2, 3]\n")
                stream.flush()
                response = json.loads(stream.readline())
            assert response["ok"] is False
            assert "protocol-error" in response["error"]
