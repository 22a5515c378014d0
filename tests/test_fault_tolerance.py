"""Fault-injection matrix for the recovery layer (deadline / checkpoint).

The contract under test is differential and exact: a run that survives
injected faults must return results *byte-identical* to the fault-free
oracle — a delayed shard's value does not depend on its delay, a
resumed run on a checkpoint matches the uninterrupted run, and a
deadline-degraded run never passes a partial aggregate off as an answer
(it returns a :class:`repro.PartialRunResult` with the partial values
clearly quarantined). The ``corrupt`` fault proves the matrix has teeth:
a silently wrong shard value *must* make these comparisons fail. A
shard runs once, so a kernel's error propagates unchanged, with the
shards that completed journaled and the rest cancelled.

Most cases run the inline sharded transport (fault-tolerance activation
forces sharding even at ``workers=1``); the ``pool`` cases and a
dedicated set run the same faults on the thread pool.
"""

from __future__ import annotations

import pickle
import time

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
    PeregrineEngine,
    ShardCheckpoint,
    Tracer,
)
from repro.core.atlas import FOUR_CYCLE, TAILED_TRIANGLE, TRIANGLE
from repro.engines.execution import SerialShardExecutor, ThreadShardExecutor
from repro.engines.recovery import (
    PatternReport,
    RunControl,
    checkpoint_key,
    map_shards,
)
from repro.errors import RunDeadlineExceeded
from repro.morph.session import MorphingSession
from repro.testing.oracle import assert_matches_oracle, results_equal

ENGINES = ("peregrine", "autozero", "graphpi", "bigjoin", "sumpa")
AGGREGATIONS = (
    CountAggregation,
    ExistenceAggregation,
    MNIAggregation,
    MatchListAggregation,
)

#: A fault plan that delays two shards without wedging them.
SLOW = FaultPlan({index: FaultSpec("slow", seconds=0.001) for index in (0, 2)})


# -- deadline / plan units ----------------------------------------------------


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
    @pytest.mark.parametrize("kind", ["melt", "crash"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError):
            FaultSpec(kind)

    def test_hang_requires_stop_signal(self):
        plan = FaultPlan({0: FaultSpec("hang")})
        with pytest.raises(ValueError, match="stop signal"):
            plan.apply_before_shard(0, stop_check=None)

    def test_hang_releases_on_stop(self):
        plan = FaultPlan({0: FaultSpec("hang")})
        polls = []
        aborted = plan.apply_before_shard(
            0,
            stop_check=lambda: len(polls) >= 3,
            sleep=lambda _s: polls.append(1),
        )
        assert aborted is True
        assert len(polls) == 3

    def test_slow_sleeps_then_proceeds(self):
        plan = FaultPlan({0: FaultSpec("slow", seconds=1.5)})
        slept = []
        aborted = plan.apply_before_shard(0, sleep=slept.append)
        assert aborted is False
        assert slept == [1.5]

    def test_transform_value_variants(self):
        plan = FaultPlan({0: FaultSpec("corrupt", delta=3)})
        assert plan.transform_value(0, 10) == 13
        assert plan.transform_value(0, True) is False
        assert plan.transform_value(0, [1, 2]) == [1]
        assert plan.transform_value(0, (10, 4)) == (13, 4)  # a cut group
        assert plan.transform_value(1, 10) == 10  # other shards untouched

    def test_spec_fires_on_every_run_of_its_shard(self):
        """No attempt scoping: a shard runs once per run, so its spec
        fires every time that shard runs, and never on another shard."""
        plan = FaultPlan({1: FaultSpec("slow", seconds=0.5)})
        slept = []
        for _ in range(3):
            assert plan.apply_before_shard(1, sleep=slept.append) is False
            assert plan.apply_before_shard(0, sleep=slept.append) is False
        assert slept == [0.5, 0.5, 0.5]
        assert plan.spec_for(1) is plan.spec_for(1)
        assert plan.spec_for(0) is None

    def test_plan_is_picklable(self):
        plan = FaultPlan({0: FaultSpec("hang"), 2: FaultSpec("corrupt", delta=2)})
        assert pickle.loads(pickle.dumps(plan)).specs == plan.specs


# -- the differential matrix: faulted == oracle -------------------------------


class TestFaultMatrix:
    @pytest.mark.parametrize("workers", [1, 2], ids=["inprocess", "pool"])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("agg_cls", AGGREGATIONS)
    def test_slow_shards_match_oracle(self, small_graph, engine, agg_cls, workers):
        """Delays on two shards must leave the answer byte-identical to
        the fault-free oracle — every engine, every aggregation, on both
        transports (inline and on pool threads)."""
        assert_matches_oracle(
            small_graph, TRIANGLE, engine, agg_cls, faults=SLOW, workers=workers
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_multi_query_morphed_run_with_slow_shards_matches_oracle(
        self, small_graph, engine
    ):
        queries = [TRIANGLE, TAILED_TRIANGLE.vertex_induced(), FOUR_CYCLE]
        assert_matches_oracle(
            small_graph,
            queries,
            engine,
            faults=FaultPlan(
                {index: FaultSpec("slow", seconds=0.001) for index in (1, 3)}
            ),
        )

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
                faults=FaultPlan({0: FaultSpec("corrupt", delta=1)}),
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
                faults=FaultPlan({2: FaultSpec("hang")}),
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
            faults=FaultPlan({1: FaultSpec("hang")}),
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
                faults=FaultPlan({2: FaultSpec("hang")}),
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

    def test_resume_after_an_interruption_skips_completed_shards(
        self, small_graph, tmp_path
    ):
        """A run cut short on pool threads by a hung shard still journals
        the shards that finished; the rerun only recomputes the rest."""
        path = tmp_path / "run.ckpt.jsonl"
        interrupted = repro.run(
            small_graph,
            [TRIANGLE],
            options=repro.RunOptions(
                workers=2,
                deadline_seconds=0.25,
                checkpoint=path,
                faults=FaultPlan({3: FaultSpec("hang")}),
            ),
        )
        assert isinstance(interrupted, PartialRunResult)
        journal = ShardCheckpoint(path)
        journaled = len(journal)
        journal.close()
        assert 0 < journaled < interrupted.total_shards
        oracle = repro.run(small_graph, [TRIANGLE])
        tracer = Tracer()
        resumed = repro.run(
            small_graph,
            [TRIANGLE],
            options=repro.RunOptions(workers=2, checkpoint=path, trace=tracer),
        )
        assert results_equal(resumed.results, oracle.results)
        assert len(resumed.trace.find("shard.checkpoint")) == journaled
        assert len(resumed.trace.find("shard")) == (
            interrupted.total_shards - journaled
        )

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


# -- a shard's own error -----------------------------------------------------


class KernelFault(RuntimeError):
    """A kernel's own error, raised by the stub engines below."""


class FailsOnThirdShard(PeregrineEngine):
    """Runs shards normally, except the third it is given, which raises.

    On the inline transport shards run in shard order, so that is shard 2.
    """

    def __init__(self):
        super().__init__()
        self.shards_begun = 0
        self.error = KernelFault("shard 2 failed")

    def aggregate_partial(self, graph, pattern, aggregation, **kwargs):
        self.shards_begun += 1
        if self.shards_begun == 3:
            raise self.error
        return super().aggregate_partial(graph, pattern, aggregation, **kwargs)


class StopsOnlyOnCancel(PeregrineEngine):
    """Shard 0 raises; any other shard polls only its cancel token, like
    a kernel, and records whether the token released it. The record is
    class-level: pool threads run deep copies of the engine."""

    released: list[bool] = []

    def aggregate_partial(self, graph, pattern, aggregation, *, root_window, cancel):
        if root_window[0] == 0:
            raise KernelFault("shard 0 failed")
        give_up = time.monotonic() + 5.0
        while not cancel.is_set() and time.monotonic() < give_up:
            time.sleep(0.005)
        type(self).released.append(cancel.is_set())
        return aggregation.zero(), False


class RecordsShards(PeregrineEngine):
    """Records the root window of every shard it begins and raises on
    the one starting at ``fail_at``. The record is class-level: pool
    threads run deep copies of the engine."""

    begun: list[int] = []
    fail_at: int = -1

    def aggregate_partial(self, graph, pattern, aggregation, **kwargs):
        start = kwargs["root_window"][0]
        type(self).begun.append(start)
        if start == type(self).fail_at:
            raise KernelFault(f"shard at root {start} failed")
        return super().aggregate_partial(graph, pattern, aggregation, **kwargs)


class SubmissionLog(SerialShardExecutor):
    """The inline transport, logging the index of every submitted shard."""

    def __init__(self):
        super().__init__()
        self.submitted: list[int] = []

    def submit(self, engine, graph, task, deadline=None):
        self.submitted.append(task.index)
        return super().submit(engine, graph, task, deadline)


def _quarters(graph):
    step = -(-graph.num_vertices // 4)
    return [
        (start, min(start + step, graph.num_vertices))
        for start in range(0, graph.num_vertices, step)
    ]


class TestSinglePass:
    @pytest.mark.parametrize("workers", [1, 2], ids=["inprocess", "pool"])
    def test_a_failing_shard_runs_once(self, small_graph, workers):
        """The failing shard's kernel is entered exactly once, on either
        transport; no shard is run a second time."""
        shards = _quarters(small_graph)
        RecordsShards.begun = []
        RecordsShards.fail_at = shards[1][0]
        executor = (
            SerialShardExecutor() if workers == 1 else ThreadShardExecutor(workers)
        )
        try:
            with pytest.raises(KernelFault):
                map_shards(
                    executor,
                    RecordsShards(),
                    small_graph,
                    TRIANGLE,
                    CountAggregation(),
                    shards,
                    control=RunControl(),
                )
        finally:
            executor.close()
        assert RecordsShards.begun.count(shards[1][0]) == 1
        assert len(RecordsShards.begun) == len(set(RecordsShards.begun))

    def test_checkpointed_shards_are_never_submitted(self, small_graph, tmp_path):
        shards = _quarters(small_graph)
        aggregation = CountAggregation()
        key = checkpoint_key(TRIANGLE, aggregation)
        with ShardCheckpoint(tmp_path / "run.ckpt.jsonl") as journal:
            first = map_shards(
                SerialShardExecutor(),
                PeregrineEngine(),
                small_graph,
                TRIANGLE,
                aggregation,
                shards[:2],
                control=RunControl(checkpoint=journal),
            )
            assert [journal.get(key, shard) for shard in shards[:2]] == [
                first[0],
                first[1],
            ]
            log = SubmissionLog()
            control = RunControl(checkpoint=journal)
            results = map_shards(
                log,
                PeregrineEngine(),
                small_graph,
                TRIANGLE,
                aggregation,
                shards,
                control=control,
            )
        assert log.submitted == [2, 3]
        assert sorted(results) == [0, 1, 2, 3]
        assert control.reports[-1].checkpointed_shards == 2
        assert control.reports[-1].complete

    def test_an_expired_deadline_stops_inline_submission(self, small_graph):
        """The inline transport checks the deadline between shards: a
        slow first shard that outlives the budget still completes, and
        no later shard is submitted."""
        shards = _quarters(small_graph)
        log = SubmissionLog()
        control = RunControl(
            deadline=0.05,
            faults=FaultPlan({0: FaultSpec("slow", seconds=0.2)}),
        )
        results = map_shards(
            log,
            PeregrineEngine(),
            small_graph,
            TRIANGLE,
            CountAggregation(),
            shards,
            control=control,
        )
        assert log.submitted == [0]
        assert sorted(results) == [0]
        report = control.reports[-1]
        assert report.interrupted
        assert (report.completed_shards, report.total_shards) == (1, 4)


class TestShardErrors:
    def test_kernel_error_propagates_and_completed_shards_resume(
        self, small_graph, tmp_path
    ):
        """A kernel's error is not retried: it propagates unchanged, the
        shards harvested before it are journaled, and a rerun skips them."""
        path = tmp_path / "run.ckpt.jsonl"
        failing = FailsOnThirdShard()
        with pytest.raises(KernelFault) as info:
            MorphingSession(failing, enabled=False, checkpoint=path).run(
                small_graph, [TRIANGLE]
            )
        assert info.value is failing.error
        journal = ShardCheckpoint(path)
        assert len(journal) == 2  # shards 0 and 1
        journal.close()
        oracle = repro.run(small_graph, [TRIANGLE])
        resumed = repro.run(
            small_graph,
            [TRIANGLE],
            options=repro.RunOptions(morph=False, checkpoint=path, trace=Tracer()),
        )
        assert results_equal(resumed.results, oracle.results)
        assert len(resumed.trace.find("shard.checkpoint")) == 2

    def test_an_error_cancels_the_shards_still_running(self, small_graph):
        """When a shard's error ends the pass while a sibling still runs
        past the deadline, the sibling's cancel token is set, so closing
        the pool does not wait for it."""
        StopsOnlyOnCancel.released = []
        half = small_graph.num_vertices // 2
        shards = [(0, half), (half, small_graph.num_vertices)]
        executor = ThreadShardExecutor(2)
        try:
            with pytest.raises(KernelFault):
                map_shards(
                    executor,
                    StopsOnlyOnCancel(),
                    small_graph,
                    TRIANGLE,
                    CountAggregation(),
                    shards,
                    control=RunControl(deadline=0.2),
                )
        finally:
            started = time.monotonic()
            executor.close()
            closing = time.monotonic() - started
        assert StopsOnlyOnCancel.released == [True]
        assert closing < 2.0


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
