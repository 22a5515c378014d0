"""End-to-end Subgraph Morphing pipeline (Figure 5): plan → executor → sink.

:class:`MorphingSession` wraps any engine and runs the enhanced workflow
as one pipeline: *pattern transformation* searches a typed
:class:`~repro.plan.RewritePlan` (S-DAG + Algorithm 1 + the rule
competition of :func:`repro.plan.search_plan`), *matching* walks the
plan's measure steps through the wrapped engine (untouched), and
*result transformation* is the **sink** the steps feed:

* the **store sink** (Algorithm 2) keeps every step's value and then
  runs the plan's combine steps — :meth:`MorphingSession.run`, for
  counts, MNI tables and match lists;
* the **stream sink** (Algorithm 3) hands every match to the caller's
  ``process`` as the engine finds it, permuted on the fly into the
  query's numbering and fanned out behind an optional pre-conversion
  vertex filter (Section 7.3's workload: the filter only depends on the
  matched vertex set, so it runs once per alternative match) —
  :meth:`MorphingSession.run_streaming`.

Nothing else varies. ``enabled=False`` is the plan whose every step is a
direct match (``search_plan(strategy="direct")``), and a search that
declines every morph arrives at the same plan, so the baseline is a
plan, not a code path; both return identical results, which every
benchmark asserts (claim C1).

Most callers want neither entry point directly: :func:`repro.run`
builds the session, resolves the engine by name, and attaches tracing
in one call.

**Telemetry.** Pass ``tracer=repro.Tracer()`` and every phase of the run
is spanned — ``transform`` (``plan.search`` with a ``selection`` child),
``match`` with one ``match.item`` span per measured step (kernel and
shard spans nested below), ``convert`` with one ``plan.step`` per
combine step, plus ``executor.setup``/``teardown`` for the worker pool's
fixed cost. Phase spans *are* the timers the result reports:
``MorphRunResult.transform_seconds`` is the transform span's duration,
so trace and result always reconcile exactly. Traced morphing runs
additionally emit one cost-model audit record per measured step (the
predicted cost vs the measured match time — §5.2's accuracy story) and
a ``selection`` summary record. Tracing changes no results (asserted
byte-for-byte by the trace invariance tests); with ``tracer=None``
nothing is recorded and, on the per-root kernel, the count path keeps
engine-native multi-pattern batching (the default kernel has none, so
there a run executes the same steps traced or not).

**Progress.** Pass ``progress=repro.ProgressReporter()`` and the step
loop reports live progress: the ETA is seeded from the plan's predicted
per-step costs and corrected online by the measured ``match.item``
durations (see :mod:`repro.observe.progress`). Off by default, at the
cost of one ``is None`` test per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.core.aggregation import (
    Aggregation,
    CountAggregation,
    Match,
    MatchListAggregation,
)
from repro.core.atlas import pattern_name
from repro.core.canonical import pattern_id
from repro.core.conversion import (
    OnTheFlyConverter,
    convert_aggregation_store,
    convert_counts,
)
from repro.core.costmodel import CostModel, profile_udf_cost
from repro.core.equations import Item, UnderivableError
from repro.core.pattern import Pattern
from repro.engines.base import EngineStats, MiningEngine
from repro.errors import RunDeadlineExceeded
from repro.graph.datagraph import DataGraph
from repro.morph.profiles import profile_for
from repro.observe.audit import CostAuditRecord
from repro.observe.export import RunTrace
from repro.observe.progress import ProgressReporter
from repro.observe.tracer import Tracer, timed_span
from repro.plan.rewrite import DecomposeStep, MeasureStep, RewritePlan, item_label
from repro.plan.rules import DecomposedCount
from repro.plan.search import SelectionResult, search_plan


@dataclass
class MorphRunResult:
    """Results plus the bookkeeping the evaluation figures report."""

    results: dict[Pattern, Any]
    stats: EngineStats
    morphing_enabled: bool
    measured: frozenset[Item] = field(default_factory=frozenset)
    #: Algorithm 1's bookkeeping (``None`` when morphing was disabled:
    #: no selection ran).
    selection: SelectionResult | None = None
    #: The executed :class:`repro.plan.RewritePlan`. Every run has one —
    #: batched or streaming, and with morphing disabled it is the plan
    #: whose every step is a direct match.
    plan: RewritePlan | None = None
    transform_seconds: float = 0.0
    match_seconds: float = 0.0
    convert_seconds: float = 0.0
    #: Fixed cost of the shard-parallel transport: worker-pool spin-up
    #: plus teardown, both outside the match window. Serial runs (and
    #: runs on a caller-owned warm pool) report 0.0. Kept separate so
    #: consumers comparing steady-state throughput can subtract it.
    executor_seconds: float = 0.0
    #: :class:`repro.observe.RunTrace` when the session was traced.
    trace: RunTrace | None = None

    @property
    def total_seconds(self) -> float:
        """End-to-end time: transform + match + convert + executor.

        ``executor_seconds`` is included so morphed-vs-baseline
        comparisons under ``workers > 1`` account the pool's fixed cost
        (it used to be silently dropped, flattering the parallel side);
        subtract the field to recover the old phases-only number.
        """
        return (
            self.transform_seconds
            + self.match_seconds
            + self.convert_seconds
            + self.executor_seconds
        )


@dataclass
class PartialRunResult(MorphRunResult):
    """A deadline-degraded run: aggregates over completed shards only.

    Returned (instead of raising) when a run's ``deadline_seconds``
    expires before every shard completed. ``results`` holds the queries
    that were still derivable from fully-completed items; queries the
    completed set cannot determine are listed in ``unresolved`` (absent
    from ``results`` — a partial value is never passed off as an
    answer). Items interrupted mid-pattern expose their merged
    completed-shard aggregate in ``partial_items``, clearly labeled as
    partial. ``coverage`` is ``completed_shards / total_shards``, where
    interrupted and never-started items are charged their full shard
    count.
    """

    coverage: float = 1.0
    completed_shards: int = 0
    total_shards: int = 0
    #: queries whose values the completed items cannot determine.
    unresolved: tuple[Pattern, ...] = ()
    #: item -> merged aggregate over that item's *completed* shards.
    partial_items: dict[Item, Any] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """False by construction — this run was cut short."""
        return not self.unresolved and self.coverage >= 1.0


class _StoreSink:
    """Algorithm 2: keep every step's value, then run the combine steps."""

    mode = "batched"

    def __init__(self, aggregation: Aggregation) -> None:
        self._aggregation = aggregation

    def aggregation(self, graph, patterns) -> Aggregation:
        """The aggregation the planner prices and the steps fold with."""
        return self._aggregation

    def bind(self, plan: RewritePlan) -> None:
        """Nothing to prepare: conversion runs after matching."""

    def measure(self, session: "MorphingSession", graph, step, exec_):
        """One step's value: the run's aggregate, or a decomposed count.

        A decomposed item is the count-like fold of its prefix's matches
        (:class:`~repro.plan.rules.DecomposedCount`): it measures like
        any aggregate, so a shard returns an integer partial sum rather
        than its prefix matches.
        """
        aggregation = self._aggregation
        if isinstance(step, DecomposeStep):
            aggregation = DecomposedCount(step.decomposition)
        return session._measure(graph, step.pattern, aggregation, exec_)

    def interrupted(self, control) -> None:
        """Degrade: the executor quarantines the item and carries on."""

    def convert(self, plan: RewritePlan, store, partial: bool, tracer):
        """Run every combine step: ``(results, unresolved queries)``.

        On a ``partial`` (deadline-interrupted) run a query survives if
        the completed items still determine it (Eq. 1 may need only a
        subset); otherwise an underivable query is a planner bug and
        propagates.
        """
        aggregation = self._aggregation
        count_mode = isinstance(aggregation, CountAggregation)
        results: dict[Pattern, Any] = {}
        unresolved: list[Pattern] = []
        for cstep in plan.combine_steps:
            query = cstep.query
            with timed_span(
                tracer,
                "plan.step",
                kind="combine",
                mode=cstep.mode,
                query=pattern_name(query),
            ):
                try:
                    if cstep.mode == "given":
                        (source,) = cstep.sources
                        if source not in store:
                            raise UnderivableError(f"{query!r} was not measured")
                        results[query] = store[source]
                    elif count_mode:
                        results[query] = convert_counts([query], store)[query]
                    else:
                        sources = {s: store[s] for s in cstep.sources if s in store}
                        results[query] = convert_aggregation_store(
                            [query], sources, aggregation
                        )[query]
                except UnderivableError:
                    if not partial:
                        raise
                    unresolved.append(query)
        return results, unresolved


class _StreamSink:
    """Algorithm 3: hand every match to ``process`` as the engine finds it."""

    mode = "streaming"

    def __init__(self, patterns, process, vertex_filter) -> None:
        emitted = self.emitted = {p: 0 for p in patterns}
        self.vertex_filter = vertex_filter
        self.callbacks: dict[Item, Callable[[Pattern, Match], None]] = {}
        self._user_process = process

        def counted(query: Pattern, match: Match) -> None:
            emitted[query] += 1
            process(query, match)

        self._process = counted

    def aggregation(self, graph, patterns) -> Aggregation:
        """Match-list pricing, plus the filter's profiled per-match cost.

        Section 5.2's UDF profiling: time the filter on dummy matches so
        its real cost steers the alternative selection (an expensive
        filter makes fewer-match alternatives pay).
        """
        aggregation = MatchListAggregation()
        # A dummy match needs |V(p)| distinct data vertices; a graph too
        # small for that holds no match, so there is nothing to steer.
        if (
            self.vertex_filter is not None
            and patterns
            and patterns[0].n <= graph.num_vertices
        ):
            aggregation.per_match_cost += profile_udf_cost(
                self.vertex_filter, patterns[0], graph
            )
        return aggregation

    def bind(self, plan: RewritePlan) -> None:
        """One engine callback per measured item.

        A query matched as given receives its matches straight from the
        engine (no conversion frame on the hot path); every other item
        fans out through one :class:`OnTheFlyConverter` per query it
        feeds, behind the vertex filter.
        """
        process, vertex_filter = self._process, self.vertex_filter

        def filtered(query: Pattern, match: Match) -> None:
            if vertex_filter(match):
                process(query, match)

        fans: dict[Item, list[OnTheFlyConverter]] = {}
        for cstep in plan.combine_steps:
            if cstep.mode == "given":
                # Unfiltered, the caller's ``process`` is the engine's
                # callback and ``measure`` counts the stream once.
                self.callbacks[cstep.sources[0]] = (
                    self._user_process if vertex_filter is None else filtered
                )
                continue
            for source in cstep.sources:
                fans.setdefault(source, []).append(
                    OnTheFlyConverter(cstep.query, source[0], process)
                )
        for item, fan in fans.items():

            def on_match(_alternative: Pattern, match: Match, _fan=fan) -> None:
                if vertex_filter is not None and not vertex_filter(match):
                    return
                for converter in _fan:
                    converter(match)

            self.callbacks[item] = on_match

    def measure(self, session: "MorphingSession", graph, step, exec_) -> None:
        """Stream one step's matches through its callback (no value)."""
        delivered = session._stream(
            graph, step.pattern, self.callbacks[step.item], exec_
        )
        if step.query is not None and self.vertex_filter is None:
            self.emitted[step.query] += delivered

    def interrupted(self, control) -> None:
        """Streaming cannot degrade to a partial store: raise instead.

        A match already handed to ``process`` cannot be recalled, so an
        expired deadline surfaces as :class:`RunDeadlineExceeded` — the
        streamed prefix is explicitly incomplete — rather than a
        :class:`PartialRunResult`.
        """
        seconds = control.deadline.seconds
        raise RunDeadlineExceeded(
            f"deadline of {seconds:g}s expired during a streaming run; "
            "the match stream is incomplete",
            deadline_seconds=seconds,
        )

    def convert(self, plan: RewritePlan, store, partial: bool, tracer):
        """Nothing to convert: the results are the emitted-match counts."""
        return dict(self.emitted), []


class MorphingSession:
    """Subgraph Morphing around an unmodified matching engine.

    One executor serves every run: it searches a
    :class:`~repro.plan.RewritePlan`, walks the plan's measure steps
    through the engine, and feeds a result sink — the Algorithm 2 store
    (:meth:`run`) or the Algorithm 3 stream (:meth:`run_streaming`).
    """

    def __init__(
        self,
        engine: MiningEngine,
        *,
        options: "RunOptions | None" = None,
        aggregation: Aggregation | None = None,
        enabled: bool = True,
        strategy: str = "auto",
        margin: float = 0.6,
        cache: "MeasurementCache | None" = None,
        plan_cache: "PlanCache | None" = None,
        workers: int = 1,
        executor=None,
        tracer: Tracer | None = None,
        progress: ProgressReporter | None = None,
        batch_roots: int | None = None,
        deadline_seconds: float | None = None,
        checkpoint=None,
        retry=None,
        faults=None,
    ) -> None:
        """Configuration is keyword-only.

        ``options`` — a :class:`repro.RunOptions` — is the consolidated
        form of the whole configuration and what the session actually
        consumes; the individual keywords below remain as conveniences
        and are folded into a ``RunOptions`` when ``options`` is not
        given (passing both raises, so a call site has exactly one
        source of truth). ``executor`` stays a session-level knob: a
        caller-owned transport is a live in-process object, not run
        configuration.

        ``enabled=False`` turns rewriting off: the run executes the plan
        whose every step matches a query directly (the baseline).

        ``margin`` is forwarded to Algorithm 1: a morph must be
        predicted to cost under ``margin`` times what it saves. ``margin
        >= 1`` accepts any predicted win; large values force morphing
        (useful to reproduce the paper's blind-morphing comparison,
        §7.5). ``cache`` optionally memoizes measured alternative values
        across runs on the same graph (FSM levels share superpatterns).

        ``strategy`` picks the rewrite strategy (see
        :func:`repro.plan.search.search_plan`): ``"auto"`` (default)
        lets direct matching and IEP decomposition compete per measured
        item under the cost model, ``"morph"`` is Algorithm 1 exactly,
        ``"decompose"`` forces decomposition wherever legal, and
        ``"direct"`` disables rewriting while keeping the session's
        bookkeeping. Streaming runs search the same space (a
        decomposition produces arithmetic, not a match stream, so the
        planner never offers one for them). ``plan_cache`` (a
        :class:`repro.PlanCache`) memoizes the entire search result
        across runs keyed by graph fingerprint, queries, aggregation,
        engine and strategy.

        ``workers`` enables the shard-parallel execution layer: with
        ``workers > 1`` every pattern's matching fans out over
        degree-balanced root-vertex shards (one warm worker pool per
        run) and merges deterministically, so results — counts, MNI
        tables, ordered match lists — are identical to ``workers=1``.
        ``executor`` overrides the transport (``"process"``/``"serial"``
        or a ``ShardExecutor`` instance); the serial in-process path is
        the default and behavior is unchanged unless ``workers > 1`` or
        an executor is supplied.

        ``tracer`` attaches structured telemetry (see the module
        docstring); results are identical traced or not.

        ``progress`` attaches a live :class:`repro.ProgressReporter` to
        the step loop: its ETA is seeded from the plan's predicted
        per-step costs and corrected online by the measured
        ``match.item`` durations. Like tracing, attaching progress
        trades the count path's engine-native multi-pattern batching for
        per-step measurement (identical results), and ``progress=None``
        (the default) costs one ``is None`` test per step.

        ``batch_roots`` picks the match kernel. ``None`` (the default)
        runs the vectorized batched-frontier kernel
        (:mod:`repro.engines.frontier`) in root chunks of
        ``DEFAULT_BATCH_ROOTS`` (2048): roots expand through
        whole-frontier numpy set-ops, in segments of a fixed element
        budget, instead of a per-root Python DFS. ``N >= 1`` sets the
        chunk size; ``0`` selects the per-root reference kernel. Results
        — counts, MNI tables, ordered match lists — are byte-identical
        across all of them (the ``tests/test_frontier.py`` differential
        matrix pins this), and the setting composes with every other
        knob: shards feed root batches, so
        workers/retries/deadlines/checkpoints behave unchanged, and with
        ``progress`` the ETA recalibrates after every chunk.

        **Fault tolerance** (any of the four below activates it; matching
        then always routes through the sharded path, in-process when
        ``workers <= 1``): ``deadline_seconds`` bounds the run's wall
        time — on expiry outstanding shards are cancelled and batched
        runs return a :class:`PartialRunResult` (streaming runs raise
        :class:`repro.errors.RunDeadlineExceeded`). ``checkpoint`` is a
        :class:`repro.ShardCheckpoint` or a path to one: completed
        shards are journaled as they finish and a resumed run skips
        them. ``retry`` is a :class:`repro.RetryPolicy` (or an int
        ``max_retries``) governing re-execution of crashed shards.
        ``faults`` injects a :class:`repro.FaultPlan` (tests only)."""
        from repro.options import RunOptions

        keywords = dict(
            aggregation=aggregation,
            morph=enabled,
            strategy=strategy,
            margin=margin,
            cache=cache,
            plan_cache=plan_cache,
            workers=workers,
            trace=tracer,
            progress=progress,
            batch_roots=batch_roots,
            deadline_seconds=deadline_seconds,
            checkpoint=checkpoint,
            retry=retry,
            faults=faults,
        )
        if options is None:
            options = RunOptions(engine=getattr(engine, "name", "engine"), **keywords)
        elif any(
            value != RunOptions.__dataclass_fields__[name].default
            for name, value in keywords.items()
        ):
            raise TypeError(
                "pass the configuration either as options=RunOptions(...) "
                "or as individual keywords, not both"
            )
        self.engine = engine
        #: The consolidated run configuration (:class:`repro.RunOptions`).
        self.options = options
        self.aggregation = options.resolved_aggregation()
        self.enabled = options.morph
        self.strategy = options.strategy
        self.margin = options.margin
        self.cache = options.cache
        self.plan_cache = options.plan_cache
        self.workers = options.workers
        self.executor = executor
        self.tracer, _ = options.resolved_tracer()
        self.progress = options.resolved_progress()
        #: Engine-level kernel setting (chunk size, ``None`` = per-root).
        self.batch_roots = options.resolved_batch_roots()
        self.deadline_seconds = options.deadline_seconds
        self.checkpoint = options.checkpoint
        self.retry = options.retry
        self.faults = options.faults
        #: The active run's RunControl (set by ``_run`` for the duration
        #: of one run; the sharded measure helper reads it).
        self._control = None

    # -- entry points --------------------------------------------------------

    def run(self, graph: DataGraph, patterns: Sequence[Pattern]) -> MorphRunResult:
        """Mine all query patterns into a result store (Algorithm 2)."""
        return self._run(graph, list(patterns), _StoreSink(self.aggregation))

    def run_streaming(
        self,
        graph: DataGraph,
        patterns: Sequence[Pattern],
        process: Callable[[Pattern, Match], None],
        vertex_filter: Callable[[Match], bool] | None = None,
    ) -> MorphRunResult:
        """Stream matches for every query through ``process`` (Algorithm 3).

        ``vertex_filter`` receives the matched data vertices (in arbitrary
        role order) and may reject the subgraph before conversion fan-out;
        the §7.3 weight filter has exactly this form. ``results`` maps
        each query to the number of matches emitted for it.
        """
        patterns = list(patterns)
        return self._run(
            graph, patterns, _StreamSink(patterns, process, vertex_filter)
        )

    # -- shard-parallel plumbing -------------------------------------------

    def _make_executor(self, force: bool = False):
        """Resolve the run's executor: ``(executor, owned)`` or ``(None, _)``.

        One executor (and so one warm worker pool) serves every pattern
        of a run; a caller-supplied ``ShardExecutor`` instance outlives
        the run (``owned=False``). ``force`` (fault-tolerant runs)
        resolves an in-process executor even when ``workers <= 1`` so
        retries/deadlines/checkpoints apply on the sharded path.
        """
        if self.workers <= 1 and self.executor is None:
            if not force:
                return None, False
            from repro.engines.execution import SerialShardExecutor

            return SerialShardExecutor(1), True
        from repro.engines.execution import ShardExecutor, make_executor

        owned = not isinstance(self.executor, ShardExecutor)
        return make_executor(self.workers, self.executor), owned

    def _make_control(self, graph):
        """Build one run's RunControl: ``(control, owns_checkpoint)``.

        ``None`` when no fault-tolerance option is set — matching then
        stays off the sharded path unless ``workers > 1``. A
        ``checkpoint`` given as a path is opened here (the graph's
        identity goes into the journal's meta line) and closed by
        ``_run``.
        """
        if (
            self.deadline_seconds is None
            and self.checkpoint is None
            and self.retry is None
            and self.faults is None
        ):
            return None, False
        from repro.engines.recovery import RunControl

        checkpoint = self.checkpoint
        owns_checkpoint = False
        if checkpoint is not None and not hasattr(checkpoint, "get"):
            from repro.checkpoint import ShardCheckpoint

            checkpoint = ShardCheckpoint(
                checkpoint,
                meta={
                    "graph": graph.name,
                    "num_vertices": graph.num_vertices,
                    "num_edges": graph.num_edges,
                    "engine": self.engine.name,
                    "aggregation": self.aggregation.name,
                },
            )
            owns_checkpoint = True
        control = RunControl(
            retry=self.retry,
            deadline=self.deadline_seconds,
            checkpoint=checkpoint,
            faults=self.faults,
            progress=self.progress,
        )
        return control, owns_checkpoint

    def _measure(self, graph, pattern, aggregation, exec_):
        """One pattern's aggregate, sharded when an executor is active."""
        if exec_ is None:
            return self.engine.aggregate(graph, pattern, aggregation)
        from repro.engines.execution import run_sharded

        return run_sharded(
            self.engine,
            graph,
            pattern,
            aggregation,
            exec_,
            tracer=self.tracer,
            control=self._control,
        )

    def _stream(self, graph, pattern, callback, exec_) -> int:
        """Stream one pattern's matches through ``callback``; returns how many.

        The sharded path materializes each shard's matches, merges them
        in shard order (= the serial enumeration order) and replays the
        stream in the parent, so callbacks observe the exact serial
        sequence without having to cross process boundaries.
        """
        if exec_ is None:
            return self.engine.explore(graph, pattern, callback)
        matches = self._measure(graph, pattern, MatchListAggregation(), exec_)
        for match in matches:
            callback(pattern, match)
        return len(matches)

    # -- run scaffolding (tracing + executor lifetime) -----------------------

    def _run(self, graph, patterns: list[Pattern], sink) -> MorphRunResult:
        """Entry-point scaffolding shared by both sinks.

        Owns the root ``run`` span, the executor's lifetime (eager
        ``prepare`` so pool spin-up is measured instead of hiding in
        the first pattern's match window — the ``executor_seconds``
        fix), the engine's tracer attachment, and the result's trace.
        """
        engine = self.engine
        if getattr(engine, "busy", False):
            raise ValueError(
                f"{type(engine).__name__} instance is already mid-run; "
                "engine instances carry per-run mutable state and cannot be "
                "shared across concurrent runs"
            )
        engine.busy = True
        tracer = self.tracer
        previous = (engine.tracer, engine.batch_roots, engine.progress)
        control, owns_checkpoint = None, False
        exec_, owned = None, False
        setup_seconds = teardown_seconds = 0.0
        with timed_span(
            tracer,
            "run",
            mode=sink.mode,
            engine=engine.name,
            patterns=len(patterns),
            morphing=self.enabled,
            workers=self.workers,
        ):
            # Everything from here on — opening a checkpoint included —
            # can raise; the finally below is what un-marks the engine.
            try:
                engine.reset_stats()
                engine.tracer = tracer
                engine.batch_roots = self.batch_roots
                engine.progress = self.progress
                control, owns_checkpoint = self._make_control(graph)
                self._control = control
                if (
                    self.workers > 1
                    or self.executor is not None
                    or control is not None
                ):
                    with timed_span(tracer, "executor.setup") as setup_span:
                        exec_, owned = self._make_executor(
                            force=control is not None
                        )
                        if exec_ is not None and owned:
                            exec_.prepare(engine, graph)
                    setup_seconds = setup_span.seconds
                with timed_span(
                    tracer, "transform", queries=len(patterns)
                ) as transform_span:
                    cost_model, plan = self._plan(
                        graph, patterns, sink.aggregation(graph, patterns)
                    )
                    sink.bind(plan)
                result = self._execute(graph, plan, sink, exec_, cost_model)
                result.transform_seconds = transform_span.seconds
            finally:
                self._control = None
                if exec_ is not None and owned:
                    with timed_span(tracer, "executor.teardown") as teardown_span:
                        exec_.close()
                    teardown_seconds = teardown_span.seconds
                if owns_checkpoint:
                    control.checkpoint.close()
                engine.tracer, engine.batch_roots, engine.progress = previous
                engine.busy = False
                if self.progress is not None:
                    # A run that raised mid-render would otherwise leave
                    # a dangling \r-overwritten line for the traceback
                    # to print over; close() terminates it (and is a
                    # no-op after a normal finish()).
                    self.progress.close()
        result.executor_seconds = setup_seconds + teardown_seconds
        if tracer is not None:
            tracer.metrics.record_engine_stats(result.stats)
            result.trace = RunTrace.from_tracer(
                tracer,
                engine=engine.name,
                mode=sink.mode,
                morphing=self.enabled,
                workers=self.workers,
            )
        return result

    # -- the plan executor ---------------------------------------------------

    def _plan(self, graph, patterns, aggregation) -> tuple[CostModel, RewritePlan]:
        """Search (or fetch from the plan cache) this run's rewrite plan."""
        tracer = self.tracer
        strategy = self.strategy if self.enabled else "direct"
        cost_model = CostModel.for_graph(
            graph, profile_for(self.engine), aggregation
        )
        key = dict(engine=self.engine.name, strategy=strategy, margin=self.margin)
        plan: RewritePlan | None = None
        if self.plan_cache is not None:
            plan = self.plan_cache.get(graph, patterns, aggregation, **key)
            if tracer is not None:
                tracer.metrics.add(
                    "plan.cache.hit" if plan is not None else "plan.cache.miss"
                )
        with timed_span(
            tracer, "plan.search", strategy=strategy, cached=plan is not None
        ) as search_span:
            if plan is None:
                plan = search_plan(
                    patterns,
                    cost_model,
                    aggregation,
                    strategy=strategy,
                    margin=self.margin,
                    tracer=tracer,
                )
                if self.plan_cache is not None:
                    self.plan_cache.put(graph, patterns, aggregation, plan, **key)
        selection = plan.selection
        search_span.attributes.update(
            measured=len(selection.measured),
            decompose_steps=len(plan.decompose_steps),
            predicted_cost=plan.predicted_cost,
        )
        if selection.truncated and tracer is not None:
            tracer.metrics.add("plan.truncated", len(selection.truncations))
        return cost_model, plan

    def _execute(
        self, graph, plan: RewritePlan, sink, exec_, cost_model: CostModel
    ) -> MorphRunResult:
        """Walk ``plan``'s steps into ``sink`` and assemble the result.

        The one step loop: cache lookup → deadline → progress →
        ``match.item`` span → measure → incomplete check → timing; then
        the sink converts and the audits pair predictions with timings.
        """
        tracer, progress, control = self.tracer, self.progress, self._control
        aggregation = cost_model.aggregation
        steps = plan.steps
        store: dict[Item, Any] = {}
        item_seconds: dict[Item, float] = {}
        unstarted: list[Item] = []
        incomplete: set[Item] = set()
        with timed_span(tracer, "match", items=len(steps)) as match_span:
            # Steps matched as a query states it hold values in that
            # query's numbering; the cache's entries are canonical.
            cache = self.cache
            shared = [s.item for s in steps if cache is not None and s.query is None]
            for item in shared:
                value = cache.get(graph, aggregation, item)
                if value is not None:
                    store[item] = value
            cached_items = set(store)
            pending = [s for s in steps if s.item not in store]
            if (
                self.engine.multi_pattern
                and isinstance(aggregation, CountAggregation)
                and exec_ is None
                and tracer is None
                and progress is None
            ):
                # Engine-native multi-pattern execution (AutoZero's merged
                # schedules, SumPA's abstraction: per-root kernel only) for
                # the direct count steps. Tracing, progress and fault
                # tolerance trade it for per-step measurement — identical
                # counts, and the audit gets a real per-step match time.
                direct = [s for s in pending if isinstance(s, MeasureStep)]
                counts = self.engine.count_set(graph, [s.pattern for s in direct])
                store.update((s.item, counts[s.pattern]) for s in direct)
                pending = [s for s in pending if s.item not in store]
            if progress is not None:
                progress.start(
                    [(item_label(s.item), s.predicted_cost) for s in pending]
                )
            for step in pending:
                item = step.item
                if control is not None and control.expired():
                    sink.interrupted(control)
                    unstarted.append(item)
                    continue
                label = item_label(item)
                if progress is not None:
                    progress.item_started(label)
                with timed_span(
                    tracer, "match.item", item=label, rule=step.rule
                ) as item_span:
                    store[item] = sink.measure(self, graph, step, exec_)
                if (
                    control is not None
                    and control.reports
                    and not control.reports[-1].complete
                ):
                    sink.interrupted(control)
                    incomplete.add(item)
                item_seconds[item] = item_span.seconds
                if progress is not None:
                    progress.item_finished(label, item_span.seconds)
            if progress is not None:
                progress.finish()
            # An interrupted item's value covers only its completed
            # shards: keep it out of the conversion store (and the
            # cache) so a partial aggregate is never passed off as full.
            partial_items = {
                item: store.pop(item) for item in sorted(incomplete, key=repr)
            }
            for item in shared:
                if item in store and item not in cached_items:
                    cache.put(graph, aggregation, item, store[item])

        partial = control is not None and bool(
            control.interrupted or unstarted or incomplete
        )
        with timed_span(
            tracer, "convert", queries=len(plan.combine_steps)
        ) as convert_span:
            results, unresolved = sink.convert(plan, store, partial, tracer)

        if tracer is not None and self.enabled:
            self._emit_audits(plan, cost_model, item_seconds, store, cached_items)

        fields = dict(
            results=results,
            stats=self.engine.stats,
            morphing_enabled=self.enabled,
            measured=plan.measured,
            selection=plan.selection if self.enabled else None,
            plan=plan,
            match_seconds=match_span.seconds,
            convert_seconds=convert_span.seconds,
        )
        if not partial:
            return MorphRunResult(**fields)
        return PartialRunResult(
            **fields,
            coverage=control.coverage(len(unstarted)),
            completed_shards=control.completed_shards,
            total_shards=control.charged_total(len(unstarted)),
            unresolved=tuple(unresolved),
            partial_items=partial_items,
        )

    def _emit_audits(
        self,
        plan: RewritePlan,
        cost_model: CostModel,
        item_seconds: dict[Item, float],
        store: dict[Item, Any],
        cached_items: set[Item],
    ) -> None:
        """One audit record per measured step, plus the set summary.

        Each record pairs the executed step's own predicted cost with
        its measured wall time — a decomposed item audits the
        decomposition, not the direct match the search rejected, which
        would poison the ``unit_seconds`` fit and the rank score.
        """
        tracer = self.tracer
        selection = plan.selection
        query_items = set(selection.query_items.values())
        for step in plan.steps:
            skel, variant = item = step.item
            value = store.get(item)
            tracer.audit(
                CostAuditRecord(
                    item=item_label(item),
                    pattern_id=pattern_id(skel),
                    variant=variant,
                    role="query" if item in query_items else "alternative",
                    predicted_cost=step.predicted_cost,
                    measured_seconds=item_seconds.get(item, 0.0),
                    predicted_matches=cost_model.estimated_matches(skel, variant),
                    measured_matches=value if isinstance(value, int) else None,
                    cached=item in cached_items,
                    extra={} if step.rule == "direct" else {"rule": step.rule},
                )
            )
        tracer.audit(
            CostAuditRecord(
                item="<selected-set>",
                pattern_id=0,
                variant="*",
                role="selection",
                predicted_cost=selection.estimated_cost,
                measured_seconds=sum(item_seconds.values()),
                extra={
                    "estimated_query_cost": selection.estimated_query_cost,
                    "rounds": selection.rounds,
                    "measured_items": len(selection.measured),
                    "morphed_queries": sum(selection.morphed.values()),
                },
            )
        )


def compare_baseline_and_morphed(
    engine_factory: Callable[[], MiningEngine],
    graph: DataGraph,
    patterns: Iterable[Pattern],
    *,
    aggregation: Aggregation | None = None,
    workers: int = 1,
    cache: "MeasurementCache | None" = None,
    margin: float = 0.6,
    strategy: str = "auto",
    tracer: Tracer | None = None,
    batch_roots: int | None = None,
) -> tuple[MorphRunResult, MorphRunResult]:
    """Run the same workload twice (baseline, morphed) on fresh engines.

    The benchmark harness's workhorse: returns both results so callers can
    assert equality (claim C1) and compare timings/counters.

    ``workers``, ``cache`` and ``margin`` configure *both* sessions the
    same way (they used to be silently unavailable here, which made any
    parallel or cached comparison lopsided): ``workers`` shard-
    parallelizes both runs, ``margin`` steers the morphed side's
    Algorithm 1, and ``cache`` memoizes measured values — note a shared
    cache warms across the two runs in call order (baseline first).
    ``tracer`` traces the **morphed** run (the side whose per-stage
    telemetry the figures need); trace the baseline by running it
    directly with its own session. ``batch_roots`` picks the match kernel
    on both sides (``None`` = batched default, ``0`` = per-root;
    identical results either way).
    ``strategy`` picks the morphed side's rewrite strategy (the baseline
    side never rewrites by definition).
    """
    patterns = list(patterns)
    shared = dict(
        aggregation=aggregation,
        workers=workers,
        cache=cache,
        margin=margin,
        batch_roots=batch_roots,
    )
    baseline = MorphingSession(engine_factory(), enabled=False, **shared).run(
        graph, patterns
    )
    morphed = MorphingSession(
        engine_factory(), strategy=strategy, tracer=tracer, **shared
    ).run(graph, patterns)
    return baseline, morphed
