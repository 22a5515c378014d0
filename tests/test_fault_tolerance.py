"""Fault-injection matrix for the recovery layer (retry / deadline /
checkpoint).

The contract under test is differential and exact: a run that survives
injected faults must return results *byte-identical* to the fault-free
oracle — a retried shard's value does not depend on how many attempts it
took, a resumed run on a checkpoint matches the uninterrupted run, and a
deadline-degraded run never passes a partial aggregate off as an answer
(it returns a :class:`repro.PartialRunResult` with the partial values
clearly quarantined). The ``corrupt`` fault proves the matrix has teeth:
a silently wrong shard value *must* make these comparisons fail.

Most cases run the inline sharded transport (fault-tolerance activation
forces sharding even at ``workers=1``); the ``pool`` cases and a
dedicated set run the same faults on the thread pool.
"""

from __future__ import annotations

import pickle

import pytest

import repro
from repro import (
    CheckpointError,
    CountAggregation,
    Deadline,
    ExistenceAggregation,
    FaultPlan,
    FaultSpec,
    GraphValidationError,
    MatchListAggregation,
    MNIAggregation,
    PartialRunResult,
    RetryPolicy,
    ShardCheckpoint,
    Tracer,
    WorkerCrashError,
)
from repro.core.atlas import FOUR_CYCLE, TAILED_TRIANGLE, TRIANGLE
from repro.engines.recovery import PatternReport, RunControl, checkpoint_key
from repro.errors import RunDeadlineExceeded
from repro.morph.session import MorphingSession
from repro.observe.progress import ProgressReporter
from repro.testing import InjectedWorkerCrash
from repro.testing.oracle import assert_matches_oracle, results_equal

ENGINES = ("peregrine", "autozero", "graphpi", "bigjoin", "sumpa")
AGGREGATIONS = (
    CountAggregation,
    ExistenceAggregation,
    MNIAggregation,
    MatchListAggregation,
)

#: Retries without wall-clock cost: backoff computed but never slept.
NOSLEEP = RetryPolicy(max_retries=3, backoff_seconds=0.0, sleep=lambda _s: None)


# -- policy / deadline / plan units -------------------------------------------


class TestRetryPolicy:
    def test_resolve_none_gives_defaults(self):
        assert RetryPolicy.resolve(None).max_retries == RetryPolicy().max_retries

    def test_resolve_int_sets_budget(self):
        assert RetryPolicy.resolve(5).max_retries == 5

    def test_resolve_instance_passthrough(self):
        assert RetryPolicy.resolve(NOSLEEP) is NOSLEEP

    def test_resolve_rejects_bool_and_junk(self):
        with pytest.raises(TypeError):
            RetryPolicy.resolve(True)
        with pytest.raises(TypeError):
            RetryPolicy.resolve("twice")

    def test_delay_is_deterministic_and_grows(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_factor=2.0, jitter=0.25)
        first = policy.delay(3, 1)
        assert first == policy.delay(3, 1), "jitter must be seeded"
        assert policy.delay(4, 1) != first, "jitter must vary per shard"
        assert 0.1 <= first <= 0.1 * 1.25
        assert 0.2 <= policy.delay(3, 2) <= 0.2 * 1.25


class TestDeadline:
    def test_expires_on_fake_clock(self):
        now = [0.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(5.0)
        now[0] = 6.0
        assert deadline.expired()
        assert deadline.remaining() == pytest.approx(-1.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)

    def test_resolve(self):
        assert Deadline.resolve(None) is None
        d = Deadline(1.0)
        assert Deadline.resolve(d) is d
        assert Deadline.resolve(2, clock=lambda: 0.0).seconds == 2.0


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("melt")

    def test_times_scopes_attempts(self):
        plan = FaultPlan({1: FaultSpec("crash", times=2)})
        assert plan.spec_for(1, 0) is not None
        assert plan.spec_for(1, 1) is not None
        assert plan.spec_for(1, 2) is None
        assert plan.spec_for(0, 0) is None

    def test_poisoned_shard_never_clears(self):
        plan = FaultPlan({0: FaultSpec("crash", times=None)})
        assert plan.spec_for(0, 10_000) is not None

    def test_random_is_seed_deterministic(self):
        a = FaultPlan.random(32, seed=7)
        b = FaultPlan.random(32, seed=7)
        assert {i: s for i, s in a.specs.items()} == b.specs
        assert FaultPlan.random(32, seed=8).specs != a.specs

    def test_crash_in_process_raises(self):
        plan = FaultPlan.crashes([2])
        with pytest.raises(InjectedWorkerCrash):
            plan.apply_before_shard(2, 0)

    def test_hang_requires_stop_signal(self):
        plan = FaultPlan({0: FaultSpec("hang")})
        with pytest.raises(ValueError, match="stop signal"):
            plan.apply_before_shard(0, 0, stop_check=None)

    def test_hang_releases_on_stop(self):
        plan = FaultPlan({0: FaultSpec("hang")})
        polls = []
        aborted = plan.apply_before_shard(
            0,
            0,
            stop_check=lambda: len(polls) >= 3,
            sleep=lambda _s: polls.append(1),
        )
        assert aborted is True
        assert len(polls) == 3

    def test_slow_sleeps_then_proceeds(self):
        plan = FaultPlan({0: FaultSpec("slow", seconds=1.5)})
        slept = []
        aborted = plan.apply_before_shard(0, 0, sleep=slept.append)
        assert aborted is False
        assert slept == [1.5]

    def test_transform_value_variants(self):
        plan = FaultPlan({0: FaultSpec("corrupt", times=None, delta=3)})
        assert plan.transform_value(0, 0, 10) == 13
        assert plan.transform_value(0, 0, True) is False
        assert plan.transform_value(0, 0, [1, 2]) == [1]
        assert plan.transform_value(0, 0, (10, 4)) == (13, 4)  # a cut group
        assert plan.transform_value(1, 0, 10) == 10  # other shards untouched

    def test_plan_is_picklable(self):
        plan = FaultPlan.crashes([0, 2], times=2)
        assert pickle.loads(pickle.dumps(plan)).specs == plan.specs


# -- the differential matrix: crash + retry == oracle -------------------------


class TestCrashRetryMatrix:
    @pytest.mark.parametrize("workers", [1, 2], ids=["inprocess", "pool"])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("agg_cls", AGGREGATIONS)
    def test_crashes_on_two_shards_match_oracle(
        self, small_graph, engine, agg_cls, workers
    ):
        """Crashes on ≤2 shards, retried, must be byte-identical to the
        fault-free oracle — every engine, every aggregation, on both
        transports (inline and on pool threads)."""
        assert_matches_oracle(
            small_graph,
            TRIANGLE,
            engine,
            agg_cls,
            faults=FaultPlan.crashes([0, 2]),
            retry=NOSLEEP,
            workers=workers,
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_multi_query_morphed_run_survives_crashes(self, small_graph, engine):
        queries = [TRIANGLE, TAILED_TRIANGLE.vertex_induced(), FOUR_CYCLE]
        assert_matches_oracle(
            small_graph,
            queries,
            engine,
            faults=FaultPlan.crashes([1, 3], times=2),
            retry=NOSLEEP,
        )

    def test_seeded_random_plan_converges(self, small_graph):
        """Property-style: a seed-derived crash/slow plan still matches."""
        plan = FaultPlan.random(8, seed=11, p_fault=0.5, kinds=("crash",))
        assert_matches_oracle(
            small_graph,
            [TRIANGLE, FOUR_CYCLE],
            "peregrine",
            faults=plan,
            retry=NOSLEEP,
        )

    def test_retry_emits_spans_and_progress_events(self, small_graph):
        tracer = Tracer()
        reporter = ProgressReporter(stream=None)
        result = repro.run(
            small_graph,
            [TRIANGLE],
            options=repro.RunOptions(
                faults=FaultPlan.crashes([0]),
                retry=NOSLEEP,
                trace=tracer,
                progress=reporter,
            ),
        )
        retries = result.trace.find("shard.retry")
        assert retries, "a retried shard must be visible in the trace"
        span = retries[0]
        assert span.attributes["shard"] == 0
        assert span.attributes["attempt"] == 1
        assert span.attributes["error"] == "InjectedWorkerCrash"
        assert span.attributes["backoff_seconds"] >= 0.0
        assert ("retry", "shard 0 attempt 1 after InjectedWorkerCrash") in (
            reporter.events
        )

    def test_poisoned_shard_exhausts_budget(self, small_graph):
        with pytest.raises(WorkerCrashError) as info:
            repro.run(
                small_graph,
                [TRIANGLE],
                options=repro.RunOptions(
                    faults=FaultPlan({1: FaultSpec("crash", times=None)}),
                    retry=RetryPolicy(max_retries=2, sleep=lambda _s: None),
                ),
            )
        assert info.value.shard_index == 1
        assert info.value.attempts == 3  # initial try + 2 retries
        assert isinstance(info.value.__cause__, InjectedWorkerCrash)

    def test_corrupt_fault_is_caught_by_the_differential(self, small_graph):
        """A silently wrong shard value must fail the oracle comparison —
        this is what gives the rest of the matrix its teeth."""
        oracle = repro.run(
            small_graph,
            [TRIANGLE],
            options=repro.RunOptions(morph=False),
        )
        corrupted = repro.run(
            small_graph,
            [TRIANGLE],
            options=repro.RunOptions(
                morph=False,
                faults=FaultPlan({0: FaultSpec("corrupt", times=None, delta=1)}),
            ),
        )
        assert corrupted.results[TRIANGLE] == oracle.results[TRIANGLE] + 1
        assert not results_equal(corrupted.results, oracle.results)


# -- deadlines: degrade, never hang -------------------------------------------


class TestRunDeadline:
    def test_hang_degrades_to_partial_result(self, tiny_graph):
        result = repro.run(
            tiny_graph,
            [TRIANGLE],
            options=repro.RunOptions(
                deadline_seconds=0.25,
                faults=FaultPlan({2: FaultSpec("hang", times=None)}),
                retry=NOSLEEP,
            ),
        )
        assert isinstance(result, PartialRunResult)
        assert not result.complete
        assert TRIANGLE in result.unresolved
        assert TRIANGLE not in result.results
        assert 0 < result.completed_shards < result.total_shards
        assert result.coverage == pytest.approx(
            result.completed_shards / result.total_shards
        )
        assert result.partial_items, "interrupted item must expose its partial"

    def test_streaming_raises_instead_of_degrading(self, tiny_graph):
        """Delivered matches cannot be un-delivered, so streaming raises."""
        session = MorphingSession(
            repro.PeregrineEngine(),
            deadline_seconds=0.25,
            faults=FaultPlan({1: FaultSpec("hang", times=None)}),
            retry=NOSLEEP,
        )
        seen: list = []
        with pytest.raises(RunDeadlineExceeded):
            session.run_streaming(
                tiny_graph, [TRIANGLE], lambda q, m: seen.append(m)
            )

    def test_generous_deadline_changes_nothing(self, small_graph):
        assert_matches_oracle(
            small_graph, [TRIANGLE, FOUR_CYCLE], deadline_seconds=600.0
        )


# -- checkpoint / resume ------------------------------------------------------


class TestCheckpointJournal:
    META = {
        "graph": "g",
        "num_vertices": 8,
        "num_edges": 12,
        "engine": "PeregrineEngine",
        "aggregation": "count",
    }

    def test_round_trip_across_reopen(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with ShardCheckpoint(path, meta=self.META) as ckpt:
            ckpt.put("k", (0, 4), 0, 17, {"calls": 3})
            ckpt.put("k", (4, 8), 1, [1, 2], {"calls": 5})
        with ShardCheckpoint(path, meta=self.META) as again:
            assert len(again) == 2
            assert again.get("k", (0, 4)) == (17, {"calls": 3})
            assert again.get("k", (4, 8)) == ([1, 2], {"calls": 5})
            assert again.get("other", (0, 4)) is None

    def test_put_is_idempotent(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with ShardCheckpoint(path, meta=self.META) as ckpt:
            ckpt.put("k", (0, 4), 0, 17, None)
            ckpt.put("k", (0, 4), 0, 999, None)  # ignored: already journaled
            assert ckpt.get("k", (0, 4)) == (17, None)
        assert sum(1 for _ in open(path)) == 2  # meta + one shard record

    def test_tampered_record_dropped_with_warning(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with ShardCheckpoint(path, meta=self.META) as ckpt:
            ckpt.put("k", (0, 4), 0, 17, None)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"sha256": "', '"sha256": "00')
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="corrupt or torn"):
            reopened = ShardCheckpoint(path, meta=self.META)
        assert reopened.get("k", (0, 4)) is None
        reopened.close()

    def test_torn_final_line_dropped(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with ShardCheckpoint(path, meta=self.META) as ckpt:
            ckpt.put("k", (0, 4), 0, 17, None)
        with open(path, "a") as fh:
            fh.write('{"type": "shard", "key": "k", "lo": 4,')  # killed mid-write
        with pytest.warns(RuntimeWarning, match="corrupt or torn"):
            reopened = ShardCheckpoint(path, meta=self.META)
        assert reopened.get("k", (0, 4)) == (17, None)
        reopened.close()

    def test_meta_mismatch_refuses_to_mix_runs(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        ShardCheckpoint(path, meta=self.META).close()
        with pytest.raises(CheckpointError, match="refusing to mix"):
            ShardCheckpoint(path, meta={**self.META, "engine": "SumPAEngine"})

    def test_format_version_checked(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text('{"type": "meta", "format_version": 99}\n')
        with pytest.raises(CheckpointError, match="format_version"):
            ShardCheckpoint(path, meta=self.META)

    def test_checkpoint_key_is_isomorphism_stable(self):
        relabeled = TRIANGLE.relabel([2, 0, 1])
        agg = CountAggregation()
        assert checkpoint_key(TRIANGLE, agg) == checkpoint_key(relabeled, agg)
        assert checkpoint_key(TRIANGLE, agg) != checkpoint_key(
            TRIANGLE, MNIAggregation()
        )


class TestResume:
    def test_interrupted_run_resumes_and_matches_oracle(
        self, small_graph, tmp_path
    ):
        path = tmp_path / "run.ckpt.jsonl"
        queries = [TRIANGLE, FOUR_CYCLE]
        oracle = repro.run(small_graph, queries)

        interrupted = repro.run(
            small_graph,
            queries,
            options=repro.RunOptions(
                deadline_seconds=0.25,
                checkpoint=path,
                faults=FaultPlan({2: FaultSpec("hang", times=None)}),
                retry=NOSLEEP,
            ),
        )
        assert isinstance(interrupted, PartialRunResult)
        journal = ShardCheckpoint(path)
        journaled = len(journal)
        journal.close()
        assert journaled > 0, "completed shards must be on disk already"

        tracer = Tracer()
        resumed = repro.run(
            small_graph,
            queries,
            options=repro.RunOptions(checkpoint=path, trace=tracer),
        )
        assert not isinstance(resumed, PartialRunResult)
        assert results_equal(resumed.results, oracle.results)
        skipped = resumed.trace.find("shard.checkpoint")
        assert len(skipped) == journaled, (
            "every journaled shard must be skipped, visibly, on resume"
        )

    def test_resume_after_crashes_skips_completed_shards(
        self, small_graph, tmp_path
    ):
        """A run killed by a poisoned shard still journals the shards that
        finished before it; the rerun only recomputes the rest."""
        path = tmp_path / "run.ckpt.jsonl"
        with pytest.raises(WorkerCrashError):
            repro.run(
                small_graph,
                [TRIANGLE],
                options=repro.RunOptions(
                    checkpoint=path,
                    faults=FaultPlan({3: FaultSpec("crash", times=None)}),
                    retry=RetryPolicy(max_retries=1, sleep=lambda _s: None),
                ),
            )
        journal = ShardCheckpoint(path)
        assert len(journal) > 0
        journal.close()
        oracle = repro.run(small_graph, [TRIANGLE])
        tracer = Tracer()
        resumed = repro.run(
            small_graph,
            [TRIANGLE],
            options=repro.RunOptions(checkpoint=path, trace=tracer),
        )
        assert results_equal(resumed.results, oracle.results)
        assert resumed.trace.find("shard.checkpoint")

    def test_mismatched_checkpoint_leaves_engine_reusable(
        self, small_graph, tiny_graph, tmp_path
    ):
        """A journal written for another graph is refused — and refusing
        it must not leave the engine instance marked mid-run."""
        path = tmp_path / "other-graph.ckpt.jsonl"
        repro.run(tiny_graph, [TRIANGLE], options=repro.RunOptions(checkpoint=path))
        engine = repro.PeregrineEngine()
        with pytest.raises(CheckpointError, match="refusing to mix"):
            MorphingSession(engine, checkpoint=path).run(small_graph, [TRIANGLE])
        again = MorphingSession(engine).run(small_graph, [TRIANGLE])
        oracle = repro.run(small_graph, [TRIANGLE])
        assert results_equal(again.results, oracle.results)

    def test_rewired_graph_cannot_resume_anothers_journal(self, tmp_path):
        """Two rewirings of one graph share name, |V|, |E| and degree
        sequence, so they shard into the same windows: only the content
        fingerprint tells their journals apart."""
        from repro.core.atlas import motif_patterns
        from repro.graph.generators import power_law_cluster, rewire

        base = power_law_cluster(120, 4, 0.5, seed=2023, name="g")
        first, second = (
            rewire(base, swaps=base.num_edges // 4, seed=seed) for seed in (1, 2)
        )
        assert (first.name, first.num_vertices, first.num_edges) == (
            second.name,
            second.num_vertices,
            second.num_edges,
        )
        queries = motif_patterns(4)
        assert repro.run(first, queries).results != repro.run(second, queries).results
        path = tmp_path / "rewired.ckpt.jsonl"
        options = repro.RunOptions(checkpoint=path, strategy="direct")
        repro.run(first, queries, options=options)
        with pytest.raises(CheckpointError, match="fingerprint"):
            repro.run(second, queries, options=options)

    def test_version_one_journal_is_refused(self, small_graph, tmp_path):
        """A journal without a fingerprint predates the check: refused."""
        path = tmp_path / "v1.ckpt.jsonl"
        path.write_text(
            '{"type": "meta", "format_version": 1, "graph": "%s"}\n'
            % small_graph.name
        )
        with pytest.raises(CheckpointError, match="format_version 1"):
            repro.run(
                small_graph, [TRIANGLE], options=repro.RunOptions(checkpoint=path)
            )

    def test_checkpoint_run_equals_plain_run(self, small_graph, tmp_path):
        assert_matches_oracle(
            small_graph, TRIANGLE, checkpoint=tmp_path / "fresh.jsonl"
        )


# -- the real thread pool -----------------------------------------------------


class TestThreadPoolRecovery:
    def test_worker_crash_is_retried(self, small_graph):
        """A crash on a pool thread is charged to its shard alone; the
        retried run matches the oracle."""
        survived, _oracle = assert_matches_oracle(
            small_graph,
            TRIANGLE,
            workers=2,
            faults=FaultPlan.crashes([1]),
            retry=NOSLEEP,
            tracer=Tracer(),
        )
        retries = survived.trace.find("shard.retry")
        assert [span.attributes["shard"] for span in retries] == [1]

    def test_pool_poisoning_shard_raises_worker_crash(self, small_graph):
        """A shard that crashes on every attempt its budget allows fails
        the run with a typed error naming it."""
        with pytest.raises(WorkerCrashError) as info:
            repro.run(
                small_graph,
                [TRIANGLE],
                options=repro.RunOptions(
                    workers=2,
                    faults=FaultPlan({1: FaultSpec("crash", times=2)}),
                    retry=RetryPolicy(max_retries=1, sleep=lambda _s: None),
                ),
            )
        assert info.value.shard_index == 1
        assert info.value.attempts == 2


# -- graph input validation (io.py satellite) ---------------------------------


class TestGraphValidation:
    def test_edge_list_context(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n# fine\n7\n")
        from repro.graph.io import load_edge_list

        with pytest.raises(GraphValidationError, match=r"bad\.txt:3"):
            load_edge_list(path)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("0 x\n", "non-integer endpoint"),
            ("0 -3\n", "negative vertex id"),
            (f"0 {2**31}\n", "overflows int32"),
        ],
    )
    def test_edge_list_bad_tokens(self, tmp_path, text, match):
        from repro.graph.io import load_edge_list

        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(GraphValidationError, match=match):
            load_edge_list(path)

    def test_validation_error_is_a_value_error(self, tmp_path):
        """Existing except ValueError call sites keep working."""
        from repro.graph.io import load_edge_list

        path = tmp_path / "bad.txt"
        path.write_text("oops\n")
        with pytest.raises(ValueError):
            load_edge_list(path)

    def test_metis_errors_carry_line_numbers(self, tmp_path):
        from repro.graph.io import load_metis

        path = tmp_path / "bad.metis"
        path.write_text("% comment\n2 1\n5\n1\n")
        with pytest.raises(GraphValidationError, match=r"out of range.*metis:3"):
            load_metis(path)

    def test_json_ragged_edge_rejected(self, tmp_path):
        import json

        from repro.graph.io import load_json_graph

        path = tmp_path / "g.json"
        path.write_text(json.dumps({"num_vertices": 3, "edges": [[0, 1, 2]]}))
        with pytest.raises(GraphValidationError, match="ragged edge"):
            load_json_graph(path)

    def test_json_label_length_checked(self, tmp_path):
        import json

        from repro.graph.io import load_json_graph

        path = tmp_path / "g.json"
        path.write_text(
            json.dumps({"num_vertices": 2, "edges": [[0, 1]], "labels": [1]})
        )
        with pytest.raises(GraphValidationError, match="label array length"):
            load_json_graph(path)

    def test_from_edges_rejects_negative(self):
        from repro.graph.io import from_edges

        with pytest.raises(GraphValidationError):
            from_edges([(0, -1)])


# -- RunControl bookkeeping ---------------------------------------------------


class TestRunControl:
    def test_coverage_charges_unstarted_items(self):
        control = RunControl()
        report = PatternReport(
            total_shards=4, completed_shards=3, interrupted=True
        )
        control.reports.append(report)
        # One more item never started: charged a full pattern's shards.
        assert control.charged_total(1) == 8
        assert control.coverage(1) == pytest.approx(3 / 8)
        assert control.interrupted

    def test_empty_run_has_full_coverage(self):
        assert RunControl().coverage() == 1.0

    def test_events_forward_to_progress(self):
        reporter = ProgressReporter(stream=None)
        control = RunControl(progress=reporter)
        control.event("retry", "shard 0")
        assert reporter.events == [("retry", "shard 0")]
