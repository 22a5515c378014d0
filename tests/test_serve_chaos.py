"""Service-level chaos harness: differential test against an oracle.

A real (socket-serving, threaded) :class:`MiningServer` runs with a
:class:`QueryFaultPlan` injecting crashes, hangs, slow responses,
corrupted frames and torn sockets — while a resilient client retries
with seeded-jitter backoff. The invariants:

* every response the client ultimately *completes* (``ok`` and not
  partial) is identical to the in-process oracle's answer for the same
  (graph, patterns) pair;
* the daemon never dies: it answers ``ping`` after the storm.

Hung queries are reaped by the wall-budget sentinel, so this test uses
real (small) time budgets rather than a fake clock — the hang fault
spins until a deadline object expires, which only a running clock can
provide. Determinism still holds where it matters: the fault plan is a
pure function of (query index, attempt), client backoff is seeded with
jitter spread deterministically, and the oracle comparison is exact.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.atlas import TRIANGLE
from repro.serve.client import RetryPolicy
from repro.serve import Client, GraphRegistry, MiningServer, ServeRejected
from repro.testing.faults import QueryFaultPlan, QueryFaultSpec

WEDGE = repro.parse_pattern("a-b-c")
SQUARE = repro.parse_pattern("a-b-c-d-a")


class TestChaosDifferential:
    def test_storm_of_faults_converges_to_oracle_answers(self, small_graph):
        oracle = repro.run(small_graph, [TRIANGLE, WEDGE]).results
        chaos = QueryFaultPlan(
            {
                0: QueryFaultSpec("crash", times=1),
                1: QueryFaultSpec("torn-socket", times=1),
                2: QueryFaultSpec("corrupt", times=1),
                3: QueryFaultSpec("slow", times=1, seconds=0.05),
                4: QueryFaultSpec("hang", times=1),
            }
        )
        registry = GraphRegistry()
        registry.add("small", small_graph)
        with MiningServer(
            registry=registry,
            workers=2,
            chaos=chaos,
            wall_budget_s=0.4,
            sample_interval=0.05,
            breaker_threshold=10,  # the breaker is not under test here
        ) as server:
            client = Client(
                port=server.port,
                client_id="chaos",
                timeout=30.0,
                retry=RetryPolicy(
                    max_retries=3, backoff_seconds=0.01, jitter=0.25, seed=0
                ),
            )
            completed = {}
            partials = []
            for index in range(6):
                pattern = TRIANGLE if index % 2 == 0 else WEDGE
                result = client.run(
                    "small",
                    [pattern],
                    chaos_index=index,
                    use_result_cache=False,
                )
                if result.partial:
                    partials.append((index, result))
                else:
                    completed[index] = (pattern, result)

            # Differential invariant: completed answers == oracle, exactly.
            assert len(completed) >= 5  # crash/torn/corrupt/slow all recover
            for index, (pattern, result) in completed.items():
                assert result.results == {pattern: oracle[pattern]}, (
                    f"query {index} diverged from oracle"
                )

            # The hang (index 4) was reaped by the wall-budget sentinel,
            # not left to wedge a worker forever.
            for index, result in partials:
                assert index == 4
                assert result.sentinel == "wall-budget"
                assert result.coverage < 1.0

            # Torn-socket / corrupt retries replayed the stored response
            # instead of recomputing (idempotency keys from the client).
            stats = client.stats()
            assert stats["metrics"].get("serve.idempotent.replays", 0) >= 1

            # The daemon survived the storm.
            assert client.ping()
            assert stats["service"]["state"] == "accepting"

    def test_crash_exhausting_retries_surfaces_typed_error(self, small_graph):
        """A fault deeper than the retry budget is reported, not hidden."""
        chaos = QueryFaultPlan({0: QueryFaultSpec("crash", times=None)})
        registry = GraphRegistry()
        registry.add("small", small_graph)
        with MiningServer(
            registry=registry, workers=2, chaos=chaos, breaker_threshold=100
        ) as server:
            client = Client(
                port=server.port,
                retry=RetryPolicy(
                    max_retries=2, backoff_seconds=0.01, jitter=0.0
                ),
            )
            with pytest.raises(RuntimeError, match="WorkerCrashError"):
                client.run("small", [TRIANGLE], chaos_index=0)
            assert client.ping()

    def test_sustained_crashes_trip_the_breaker_for_the_cell(self, small_graph):
        chaos = QueryFaultPlan(
            {i: QueryFaultSpec("crash", times=None) for i in range(3)}
        )
        registry = GraphRegistry()
        registry.add("small", small_graph)
        with MiningServer(
            registry=registry,
            workers=2,
            chaos=chaos,
            breaker_threshold=3,
            breaker_reset_s=60.0,
        ) as server:
            client = Client(port=server.port)  # no retries: count each hit
            for index in range(3):
                with pytest.raises(RuntimeError, match="WorkerCrashError"):
                    client.run("small", [TRIANGLE], chaos_index=index)
            with pytest.raises(ServeRejected) as excinfo:
                client.run("small", [TRIANGLE])
            assert excinfo.value.verdict == "rejected:circuit-open"
            assert excinfo.value.retry_after_s is not None
            stats = client.stats()
            assert stats["breakers"]["small/peregrine"]["state"] == "open"


class TestFaultPlanDeterminism:
    def test_random_plan_is_a_pure_function_of_seed(self):
        plans = [
            QueryFaultPlan.random(num_queries=40, seed=7, p_fault=0.5)
            for _ in range(2)
        ]
        specs = [
            {
                index: (spec.kind, spec.times, spec.seconds, spec.delta)
                for index, spec in plan.specs.items()
            }
            for plan in plans
        ]
        assert specs[0] == specs[1]
        assert specs[0]  # p=0.5 over 40 queries: some faults exist
        other = QueryFaultPlan.random(num_queries=40, seed=8, p_fault=0.5)
        assert specs[0] != {
            index: (s.kind, s.times, s.seconds, s.delta)
            for index, s in other.specs.items()
        }

    def test_begin_burns_attempts_per_query_independently(self):
        plan = QueryFaultPlan(
            {0: QueryFaultSpec("crash", times=2), 1: QueryFaultSpec("slow")}
        )
        spec, attempt = plan.begin(0)
        assert spec is not None and spec.kind == "crash" and attempt == 0
        spec, attempt = plan.begin(0)
        assert spec is not None and attempt == 1
        spec, _attempt = plan.begin(0)
        assert spec is None  # budget of 2 exhausted
        spec, attempt = plan.begin(1)
        assert spec is not None and spec.kind == "slow" and attempt == 0
        assert plan.begin(None) == (None, 0)  # unindexed queries never fault
        assert plan.begin(99) == (None, 0)

    def test_differential_square_counts_with_random_plan(self, small_graph):
        """Seeded random chaos over a second pattern family still
        converges to the oracle for everything that completes."""
        oracle = repro.run(small_graph, [SQUARE]).results
        chaos = QueryFaultPlan.random(
            num_queries=4, seed=3, p_fault=0.6, kinds=("crash", "slow")
        )
        registry = GraphRegistry()
        registry.add("small", small_graph)
        with MiningServer(
            registry=registry, workers=2, chaos=chaos, breaker_threshold=50
        ) as server:
            client = Client(
                port=server.port,
                retry=RetryPolicy(
                    max_retries=3, backoff_seconds=0.01, jitter=0.0
                ),
            )
            for index in range(4):
                result = client.run(
                    "small",
                    [SQUARE],
                    chaos_index=index,
                    use_result_cache=False,
                )
                assert not result.partial
                assert result.results == {SQUARE: oracle[SQUARE]}
