"""Shared engine machinery: stats, the matching kernel, the engine API.

All four system substrates (Peregrine-, AutoZero-, GraphPi- and
BigJoin-style) interpret :class:`~repro.engines.plan.ExplorationPlan`
programs through kernels in this module, differing in how plans are
constructed, ordered, merged and materialized. The shared
:class:`EngineStats` exposes exactly the quantities the paper profiles:
set-operation counts/time (Figure 4b/c, 12c/d, 13b), UDF calls/time
(Figure 4a/d/e, 15b), materialization volume, and Filter-UDF branches and
branch misses (Figure 14c/d).
"""

from __future__ import annotations

import os
import time
from abc import ABC
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.core.aggregation import Aggregation, CountAggregation, Match
from repro.core.canonical import pattern_id
from repro.core.pattern import Pattern
from repro.engines.plan import ExplorationPlan
from repro.engines.setops import (
    BranchPredictor,
    SetOpStats,
    bound_above,
    bound_below,
    difference,
    exclude,
    intersect,
)
from repro.graph.datagraph import DataGraph

MatchCallback = Callable[[Pattern, Match], None]


class StopExploration(Exception):
    """Raised by a match callback to end exploration early.

    Peregrine supports early termination for applications that only need
    a prefix of the match stream (existence probes, top-k); the kernels
    treat this exception as a clean stop, with all counters intact.
    """


#: Debug mode for stats merging: when true, merging shard/run stats
#: asserts that section timers never exceed wall time instead of letting
#: ``other_seconds`` silently clamp the negative residual to zero (which
#: would hide double-counted section timers). Enable with the
#: ``REPRO_STRICT_STATS`` environment variable or by setting the module
#: attribute directly in tests.
STRICT_STATS = os.environ.get("REPRO_STRICT_STATS", "0") not in ("", "0")

#: perf_counter noise allowance when comparing summed section timers
#: against the enclosing wall-time window.
_TIMER_SLACK = 1e-6


@dataclass
class EngineStats:
    """Instrumentation for one or more matching runs."""

    setops: SetOpStats = field(default_factory=SetOpStats)
    matches: int = 0
    materialized: int = 0
    udf_calls: int = 0
    udf_seconds: float = 0.0
    filter_calls: int = 0
    filter_seconds: float = 0.0
    predictor: BranchPredictor = field(default_factory=BranchPredictor)
    total_seconds: float = 0.0
    patterns_matched: int = 0

    @property
    def branches(self) -> int:
        return self.predictor.branches

    @property
    def branch_misses(self) -> int:
        return self.predictor.misses

    @property
    def section_seconds(self) -> float:
        """Sum of the instrumented sections (setops + UDF + filter)."""
        return self.setops.seconds + self.udf_seconds + self.filter_seconds

    @property
    def other_seconds(self) -> float:
        """Residual engine time (exploration machinery / "system time")."""
        return max(0.0, self.total_seconds - self.section_seconds)

    def validate(self) -> None:
        """Assert internal consistency: sections fit inside wall time.

        Section timers are measured as disjoint sub-intervals of the
        kernel's wall-time window, so their sum exceeding the total (by
        more than timer noise) means a section was double-counted — the
        exact bug the ``other_seconds`` clamp would otherwise hide.
        """
        residual = self.total_seconds - self.section_seconds
        if residual < -_TIMER_SLACK:
            raise AssertionError(
                f"section timers exceed total wall time: "
                f"sections={self.section_seconds:.6f}s "
                f"total={self.total_seconds:.6f}s"
            )

    def merge(self, other: "EngineStats", strict: bool | None = None) -> None:
        """Fold another run's counters in (used for shard merges).

        ``strict`` (default: the module's ``STRICT_STATS`` debug flag)
        validates both inputs and the merged result.
        """
        strict = STRICT_STATS if strict is None else strict
        if strict:
            other.validate()
        self.setops.merge(other.setops)
        self.matches += other.matches
        self.materialized += other.materialized
        self.udf_calls += other.udf_calls
        self.udf_seconds += other.udf_seconds
        self.filter_calls += other.filter_calls
        self.filter_seconds += other.filter_seconds
        self.predictor.branches += other.predictor.branches
        self.predictor.misses += other.predictor.misses
        self.total_seconds += other.total_seconds
        self.patterns_matched += other.patterns_matched
        if strict:
            self.validate()

    def breakdown(self) -> dict[str, float]:
        """Figure 4-style time split."""
        return {
            "setops": self.setops.seconds,
            "udf": self.udf_seconds,
            "filter": self.filter_seconds,
            "system": self.other_seconds,
            "total": self.total_seconds,
        }


def level_candidates(
    graph: DataGraph,
    level,
    stack: list[int],
    stats: EngineStats,
) -> np.ndarray:
    """Candidate data vertices for one plan level given the partial match.

    ``level`` is a :class:`~repro.engines.plan.PlanLevel`; all positional
    references index into ``stack`` (the data vertices matched at earlier
    levels).
    """
    if level.backward_neighbors:
        arrays = [graph.neighbors(stack[j]) for j in level.backward_neighbors]
        cand = arrays[0]
        for other in arrays[1:]:
            cand = intersect(cand, other, stats.setops)
    elif level.label is not None and graph.is_labeled:
        cand = graph.vertices_by_label.get(level.label, _EMPTY)
    else:
        cand = graph.all_vertices

    for j in level.backward_anti:
        cand = difference(cand, graph.neighbors(stack[j]), stats.setops)

    if level.upper_bounds:
        cand = bound_above(cand, min(stack[j] for j in level.upper_bounds))
    if level.lower_bounds:
        cand = bound_below(cand, max(stack[j] for j in level.lower_bounds))

    if level.label is not None and graph.is_labeled and level.backward_neighbors:
        labels = graph.labels
        assert labels is not None
        cand = cand[labels[cand] == level.label]

    if level.non_adjacent:
        cand = exclude(cand, [stack[j] for j in level.non_adjacent])
    return cand


_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False

#: A shard's top-level candidate restriction: a half-open vertex-id
#: window ``(lo, hi)``. Windows partition the root candidate range, and
#: every match is rooted at exactly one level-0 vertex, so disjoint
#: covering windows partition the match set — the invariant the
#: shard-parallel execution layer rests on.
RootWindow = tuple[int, int]


def clip_to_window(cand: np.ndarray, window: RootWindow) -> np.ndarray:
    """Restrict a sorted candidate array to vertex ids in ``[lo, hi)``."""
    lo, hi = window
    return cand[np.searchsorted(cand, lo) : np.searchsorted(cand, hi)]


def close_run(stats: EngineStats, start: float, count: int | None) -> int:
    """Book one kernel run that began at ``start``; returns its count.

    ``count=None`` is a run a callback stopped early: its partial
    results were delivered through the callback, so it books no matches
    and counts 0.
    """
    stats.total_seconds += time.perf_counter() - start
    stats.patterns_matched += 1
    if count is None:
        return 0
    stats.matches += count
    return count


def run_plan(
    graph: DataGraph,
    plan: ExplorationPlan,
    stats: EngineStats,
    on_match: Callable[[Match], None] | None = None,
    root_window: RootWindow | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> int:
    """Depth-first interpretation of a plan; returns the match count.

    Without ``on_match`` the innermost loop is the counting fast path:
    the candidate array's length is added without materializing matches
    (the set-optimization Peregrine uses for counting, §3.1). With a
    callback every match is materialized in pattern-vertex order.

    ``root_window`` restricts the level-0 candidates to a vertex-id
    window (one shard of a parallel run); ``should_stop`` is polled once
    per root candidate and ends exploration cleanly (the cross-shard
    cancellation hook for early-terminating aggregations).
    """
    depth = plan.depth
    stack: list[int] = [0] * depth

    def descend(level_index: int) -> int:
        cand = level_candidates(graph, plan.levels[level_index], stack, stats)
        poll = level_index == 0 and should_stop is not None
        if level_index == 0 and root_window is not None:
            cand = clip_to_window(cand, root_window)
        if level_index == depth - 1:
            if on_match is None:
                if poll and should_stop():
                    raise StopExploration()
                return int(len(cand))
            emitted = 0
            for v in cand.tolist():
                if poll and should_stop():
                    raise StopExploration()
                stack[level_index] = v
                match = plan.match_to_pattern_order(stack)
                stats.materialized += 1
                on_match(match)
                emitted += 1
            return emitted
        total = 0
        for v in cand.tolist():
            if poll and should_stop():
                raise StopExploration()
            stack[level_index] = v
            total += descend(level_index + 1)
        return total

    start = time.perf_counter()
    try:
        count = descend(0)
    except StopExploration:
        count = None
    return close_run(stats, start, count)


class MiningEngine(ABC):
    """Common engine API: counting, aggregation and match streaming.

    Subclasses set ``native_anti_edges``; engines without native support
    (GraphPi, BigJoin) transparently match the edge-induced skeleton of an
    anti-edge pattern and apply a Filter UDF per match — the exact
    behaviour whose cost Figure 14 quantifies and morphing eliminates.
    """

    name = "engine"
    native_anti_edges = True
    #: False for an engine whose own kernel replaces the shared ones
    #: whatever ``batch_roots`` says (BigJoin's breadth-first join).
    batched_kernel = True
    #: Span name of the engine's own per-match kernel (``_run_kernel``).
    kernel_name = "kernel"

    def __init__(self) -> None:
        self.stats = EngineStats()
        #: Live :class:`repro.observe.Tracer` during a traced run, else
        #: ``None``. Attached by the session (or by ``repro.run``); the
        #: kernels check it with one ``is None`` test, so the untraced
        #: hot path stays allocation-free.
        self.tracer = None
        #: Batched frontier matching (:mod:`repro.engines.frontier`):
        #: ``None`` keeps the per-root kernels; an int expands roots in
        #: chunks of that size through the vectorized frontier kernel.
        #: Mechanism only — a bare engine is per-root; sessions set this
        #: from ``RunOptions.resolved_batch_roots()`` (batched unless
        #: ``batch_roots=0``). Pickles to pool workers, so shards batch
        #: exactly like the parent would.
        self.batch_roots: int | None = None
        #: Live :class:`repro.observe.ProgressReporter` during a run
        #: with both progress and batching enabled — the batched kernel
        #: reports per-chunk completion through it so the ETA
        #: recalibrates per batch instead of per item.
        self.progress = None
        #: True while a session run is executing on this instance. The
        #: sharing contract (see :func:`repro.resolve_engine`): stats,
        #: tracer and progress are per-run mutable state, so an instance
        #: must never serve two concurrent runs — ``resolve_engine``
        #: rejects a busy instance instead of silently corrupting both
        #: runs' telemetry.
        self.busy = False

    def __getstate__(self):
        # Engines ship to pool workers by pickle; the tracer and the
        # progress reporter stay home (workers record into their own
        # tracer when span collection is requested — see
        # ``execution._run_shard_task`` — and cannot render to the
        # parent's stream).
        state = self.__dict__.copy()
        state["tracer"] = None
        state["progress"] = None
        state["busy"] = False  # the worker's copy is its own engine
        return state

    def reset_stats(self) -> None:
        self.stats = EngineStats()

    @contextmanager
    def kernel_span(self, name: str = "kernel", **attributes):
        """Span one kernel invocation, sampling the engine's counters.

        Individual set operations are far too hot to trace; instead the
        existing :class:`~repro.engines.setops.SetOpStats` hooks keep
        counting as always and this wrapper attaches the *deltas* (set
        ops, galloped ops, set-op/UDF/filter seconds, materialized
        matches) to one span per kernel run. With no tracer attached it
        yields ``None`` without touching the clock.
        """
        tracer = self.tracer
        if tracer is None:
            yield None
            return
        stats = self.stats
        setops = stats.setops
        before = (
            setops.intersections,
            setops.differences,
            setops.galloped,
            setops.seconds,
            stats.udf_calls,
            stats.udf_seconds,
            stats.filter_seconds,
            stats.materialized,
            setops.batched,
        )
        with tracer.span(name, **attributes) as span:
            try:
                yield span
            finally:
                span.attributes.update(
                    intersections=setops.intersections - before[0],
                    differences=setops.differences - before[1],
                    galloped=setops.galloped - before[2],
                    setop_seconds=setops.seconds - before[3],
                    udf_calls=stats.udf_calls - before[4],
                    udf_seconds=stats.udf_seconds - before[5],
                    filter_seconds=stats.filter_seconds - before[6],
                    materialized=stats.materialized - before[7],
                    batched=setops.batched - before[8],
                )

    # -- plan construction (engines override) ------------------------------

    def make_plan(self, pattern: Pattern, graph: DataGraph) -> ExplorationPlan:
        return ExplorationPlan.build(pattern)

    def _execute(
        self,
        graph: DataGraph,
        plan: ExplorationPlan,
        root_window: RootWindow | None = None,
        cancel=None,
        on_block: Callable[[np.ndarray], None] | None = None,
    ) -> int:
        """Run one plan through the selected kernel; returns the match count.

        The one place that knows two kernels exist (and the one that
        opens their span). Matches leave either of them as blocks:
        ``on_block(rows)``, one match per row in pattern-vertex order —
        the frontier kernel's native output; a per-match ``_run_kernel``
        is adapted by :class:`~repro.engines.frontier.BlockBuffer`.
        Without ``on_block`` nothing is materialized and only the count
        returns. ``root_window``/``cancel`` scope the run to one shard.
        """
        from repro.engines.frontier import BlockBuffer, run_plan_batched

        should_stop = cancel.is_set if cancel is not None else None
        batched = self.batch_roots is not None and self.batched_kernel
        attributes = {"batch_roots": self.batch_roots} if batched else {}
        with self.kernel_span(
            "kernel.batched" if batched else self.kernel_name,
            depth=plan.depth,
            window=list(root_window) if root_window else None,
            **attributes,
        ):
            if batched:
                progress = self.progress
                return run_plan_batched(
                    graph,
                    plan,
                    self.stats,
                    root_window=root_window,
                    should_stop=should_stop,
                    batch_roots=self.batch_roots,
                    on_batch=progress.item_progress if progress is not None else None,
                    on_block=on_block,
                )
            if on_block is None:
                return self._run_kernel(graph, plan, None, root_window, should_stop)
            buffer = BlockBuffer(on_block)
            count = self._run_kernel(graph, plan, buffer, root_window, should_stop)
            # The tail block is consumed after the kernel closed its
            # wall-time window; its (UDF) seconds still belong to the total.
            start = time.perf_counter()
            try:
                buffer.flush()
            except StopExploration:
                pass  # the consumer saturated on the tail block
            self.stats.total_seconds += time.perf_counter() - start
            return count

    def _run_kernel(
        self, graph, plan, on_match=None, root_window=None, should_stop=None
    ) -> int:
        """The engine's own per-match kernel (engines override this)."""
        return run_plan(graph, plan, self.stats, on_match, root_window, should_stop)

    # -- filter UDF for non-native anti-edges ------------------------------

    def _filter_match(self, graph: DataGraph, pattern: Pattern, match: Match) -> bool:
        """Filter UDF: reject matches violating the pattern's anti-edges.

        Each anti-edge costs one data-dependent branch (an edge-existence
        probe); the 2-bit predictor in the stats records misses.
        """
        start = time.perf_counter()
        self.stats.filter_calls += 1
        base_site = pattern_id(pattern) & 0xFFFF
        ok = True
        for idx, (u, v) in enumerate(sorted(pattern.anti_edges)):
            # Probe the adjacency array (binary search), as the real
            # systems do — a data-dependent branch per anti-edge.
            adj = graph.neighbors(match[u])
            pos = int(np.searchsorted(adj, match[v]))
            present = pos < len(adj) and int(adj[pos]) == match[v]
            self.stats.predictor.record(base_site + idx, present)
            if present:
                ok = False
                break
        self.stats.filter_seconds += time.perf_counter() - start
        return ok

    def _needs_filter(self, pattern: Pattern) -> bool:
        return bool(pattern.anti_edges) and not self.native_anti_edges

    def _plan_pattern(self, pattern: Pattern, graph: DataGraph) -> tuple[ExplorationPlan, bool]:
        """Plan for a pattern, with a flag for post-filtering anti-edges."""
        if self._needs_filter(pattern):
            return self.make_plan(pattern.edge_induced(), graph), True
        return self.make_plan(pattern, graph), False

    # -- public mining operations ------------------------------------------

    def count(
        self,
        graph: DataGraph,
        pattern: Pattern,
        *,
        root_window: RootWindow | None = None,
        cancel=None,
    ) -> int:
        """Number of unique matches of ``pattern`` in ``graph``.

        ``root_window`` restricts counting to matches rooted in one
        vertex-id shard; ``cancel`` is a cancellation token (``set()`` /
        ``is_set()``) shared across shards of a parallel run.
        """
        plan, needs_filter = self._plan_pattern(pattern, graph)
        if not needs_filter:
            return self._execute(graph, plan, root_window, cancel)
        kept = [0]

        def on_block(rows: np.ndarray) -> None:
            for match in map(tuple, rows.tolist()):
                if self._filter_match(graph, pattern, match):
                    kept[0] += 1

        self._execute(graph, plan, root_window, cancel, on_block)
        return kept[0]

    #: ``_count_shared(graph, patterns) -> {pattern: count}``: an engine's
    #: one-pass answer to a whole pattern set (AutoZero's merged
    #: schedules, SumPA's abstraction), or ``None`` when it has none.
    _count_shared = None

    @property
    def multi_pattern(self) -> bool:
        """Does :meth:`count_set` share work across patterns on this run?

        Both shared passes walk root by root, so they are the per-root
        reference only: under batching every pattern is counted on its
        own through the frontier kernel. The session reads this before
        it hands a plan's direct count steps to ``count_set``, so a run
        executes the same steps whether or not it is traced.
        """
        return self._count_shared is not None and self.batch_roots is None

    def count_set(
        self, graph: DataGraph, patterns: Iterable[Pattern]
    ) -> dict[Pattern, int]:
        """Counts for several patterns, shared where :attr:`multi_pattern`."""
        patterns = list(patterns)
        if self.multi_pattern:
            return self._count_shared(graph, patterns)
        return {p: self.count(graph, p) for p in patterns}

    def explore(
        self,
        graph: DataGraph,
        pattern: Pattern,
        process: MatchCallback,
        *,
        root_window: RootWindow | None = None,
        cancel=None,
    ) -> int:
        """Stream every match through ``process``; returns the match count.

        ``process`` is the application UDF: its calls are counted and timed
        (the Figure 4a/b bottleneck) a block of matches at a time — one
        loop, one clock pair and one counter update per kernel block.
        ``root_window``/``cancel`` scope the stream to one shard of a
        parallel run.
        """
        plan, needs_filter = self._plan_pattern(pattern, graph)
        stats = self.stats
        emitted = [0]

        def on_block(rows: np.ndarray) -> None:
            # One loop and one clock pair per block; the Filter UDF keeps
            # its own timer, so its share is taken back out of the UDF's.
            done = 0
            filter_before = stats.filter_seconds
            start = time.perf_counter()
            try:
                for match in map(tuple, rows.tolist()):
                    if needs_filter and not self._filter_match(graph, pattern, match):
                        continue
                    process(pattern, match)
                    done += 1
            finally:
                elapsed = time.perf_counter() - start
                stats.udf_calls += done
                stats.udf_seconds += elapsed - (stats.filter_seconds - filter_before)
                emitted[0] += done

        self._execute(graph, plan, root_window, cancel, on_block)
        return emitted[0]

    def aggregate_partial(
        self,
        graph: DataGraph,
        pattern: Pattern,
        aggregation: Aggregation,
        *,
        root_window: RootWindow | None = None,
        cancel=None,
    ) -> tuple:
        """One shard's un-finalized aggregation value.

        Returns ``(value, terminal)`` where ``value`` is the raw fold of
        this shard's matches (no :meth:`Aggregation.finalize`, which must
        run once after all shards merge) and ``terminal`` flags early
        saturation. When the value saturates, ``cancel`` (if given) is
        set so sibling shards short-circuit.
        """
        if isinstance(aggregation, CountAggregation):
            # Native or filtered counting: no per-match fold needed.
            return (
                self.count(graph, pattern, root_window=root_window, cancel=cancel),
                False,
            )

        box = [aggregation.zero()]
        if aggregation.from_block is not None:
            # Block-native fold (a decomposed count): no per-match UDF.
            def on_block(rows: np.ndarray) -> None:
                box[0] = aggregation.combine(
                    box[0], aggregation.from_block(graph, rows, self.stats)
                )

            plan, needs_filter = self._plan_pattern(pattern, graph)
            if needs_filter:
                raise ValueError(
                    f"{aggregation.name} folds whole blocks; {self.name} would "
                    f"have to filter {pattern!r} match by match"
                )
            self._execute(graph, plan, root_window, cancel, on_block)
            return box[0], False

        terminal = [False]

        def process(p: Pattern, match: Match) -> None:
            box[0] = aggregation.combine(box[0], aggregation.from_match(p, match))
            if aggregation.is_terminal(box[0]):
                terminal[0] = True
                if cancel is not None:
                    cancel.set()
                raise StopExploration()

        self.explore(
            graph, pattern, process, root_window=root_window, cancel=cancel
        )
        return box[0], terminal[0]

    def aggregate(
        self, graph: DataGraph, pattern: Pattern, aggregation: Aggregation
    ):
        """Fold every match into an aggregation value.

        Counting takes the native fast path (no per-match UDF); any other
        aggregation pays one UDF invocation per match.
        """
        value, _terminal = self.aggregate_partial(graph, pattern, aggregation)
        return aggregation.finalize(pattern, value)

    def run(
        self,
        graph: DataGraph,
        pattern: Pattern,
        aggregation: Aggregation | None = None,
        *,
        workers: int = 1,
        num_shards: int | None = None,
        executor=None,
    ):
        """Mine one pattern end-to-end, optionally shard-parallel.

        The default (``workers=1``, no executor) is the unchanged serial
        path. With ``workers > 1`` the top-level candidate range is split
        into degree-balanced shards, each shard runs through this
        engine's kernels, and per-shard results merge deterministically
        in shard order (:meth:`Aggregation.merge` for values,
        :meth:`EngineStats.merge` for counters), so parallel runs return
        byte-identical results to serial ones.

        ``executor`` selects the transport: ``"process"`` (default for
        ``workers > 1``; worker processes via ``ProcessPoolExecutor``),
        ``"serial"`` (in-process sharding — same split/merge, no
        processes), or a :class:`repro.engines.execution.ShardExecutor`
        instance to reuse a warm worker pool across calls.
        """
        aggregation = aggregation if aggregation is not None else CountAggregation()
        if workers <= 1 and executor is None:
            return self.aggregate(graph, pattern, aggregation)
        from repro.engines.execution import execute_sharded

        return execute_sharded(
            self,
            graph,
            pattern,
            aggregation,
            workers=workers,
            num_shards=num_shards,
            executor=executor,
        )
