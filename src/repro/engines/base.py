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
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from operator import length_hint
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
    #: Matches the kernels produced. A decomposed count (the planner's
    #: ``Decompose`` step, or GraphPi's compiled count) books its
    #: *prefix* matches: the suffix is arithmetic, never matched.
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


def _as_matches(rows: np.ndarray) -> Iterable[Match]:
    """A block's rows as match tuples of Python ints, lazily, in row order.

    Column-wise ``tolist`` plus ``zip`` builds each tuple in C; a tuple
    its consumer did not keep is recycled for the next row, so a stream
    allocates next to nothing per match.
    """
    return zip(*rows.T.tolist())


#: Runs an iterator to exhaustion from C (the ``consume`` recipe).
_consume = deque(maxlen=0).extend


def deliver(
    process: MatchCallback,
    pattern: Pattern,
    matches: Iterable[Match],
    count: int,
    stats: EngineStats,
) -> int:
    """Call ``process(pattern, match)`` for each of ``count`` matches, in order.

    The one block-delivery loop: ``map`` drives the calls from C, so the
    only per-match Python frame is the callee's own. Completed calls are
    booked on ``stats`` as UDF calls, the loop's time as UDF seconds;
    returns how many completed. A call that raises (a consumer's
    :class:`StopExploration`, or any error) ends delivery: exactly the
    calls before it stay booked, and the exception propagates unchanged.
    """
    patterns = repeat(pattern, count)
    done = count
    start = time.perf_counter()
    try:
        _consume(map(process, patterns, matches))
    except BaseException:
        # ``map`` took the raising call's pattern before calling; it and
        # every pattern left over are calls that did not complete.
        done -= length_hint(patterns) + 1
        raise
    finally:
        stats.udf_calls += done
        stats.udf_seconds += time.perf_counter() - start
    return done


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


#: :meth:`MiningEngine.kernel_span` without a tracer.
_NO_SPAN = nullcontext()


class _KernelSpan:
    """:meth:`MiningEngine.kernel_span` with a tracer: a span whose
    attributes gain the engine's counter deltas over the block."""

    __slots__ = ("_stats", "_scope", "_before", "_span")

    def __init__(self, tracer, stats: "EngineStats", name: str, attributes) -> None:
        self._stats = stats
        self._scope = tracer.span(name, **attributes)

    def __enter__(self):
        stats = self._stats
        setops = stats.setops
        self._before = (
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
        self._span = self._scope.__enter__()
        return self._span

    def __exit__(self, *exc_info) -> None:
        stats, before = self._stats, self._before
        setops = stats.setops
        self._span.attributes.update(
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
        self._scope.__exit__(*exc_info)


class MiningEngine(ABC):
    """Common engine API: counting, aggregation and match streaming.

    Subclasses set ``native_anti_edges``; engines without native support
    (GraphPi, BigJoin) transparently match the edge-induced skeleton of an
    anti-edge pattern and apply a Filter UDF per match — the exact
    behaviour whose cost Figure 14 quantifies and morphing eliminates.
    """

    name = "engine"
    native_anti_edges = True

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
        #: ``batch_roots=0``). Copied to pool threads, so shards batch
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
        # A shard thread runs on its own copy of the engine (see
        # ``execution.ThreadShardExecutor``); the tracer and the
        # progress reporter stay home (a worker records into its own
        # tracer when span collection is requested — see
        # ``execution.run_shard`` — and does not render to the
        # caller's stream).
        state = self.__dict__.copy()
        state["tracer"] = None
        state["progress"] = None
        state["busy"] = False  # the worker's copy is its own engine
        return state

    def reset_stats(self) -> None:
        self.stats = EngineStats()

    def kernel_span(self, name: str = "kernel", **attributes):
        """Span one kernel invocation, sampling the engine's counters.

        Individual set operations are far too hot to trace; instead the
        existing :class:`~repro.engines.setops.SetOpStats` hooks keep
        counting as always and this wrapper attaches the *deltas* (set
        ops, galloped ops, set-op/UDF/filter seconds, materialized
        matches) to one span per kernel run. With no tracer attached it
        yields ``None`` without touching the clock.
        """
        if self.tracer is None:
            return _NO_SPAN
        return _KernelSpan(self.tracer, self.stats, name, attributes)

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
        fold: str | None = None,
    ) -> int:
        """Run one plan through the selected kernel; returns the match count.

        The one place that knows two kernels exist (and the one that
        opens their span). Matches leave either of them as blocks:
        ``on_block(rows)``, one match per row in pattern-vertex order —
        the frontier kernel's native output; the per-root ``run_plan``
        is adapted by :class:`~repro.engines.frontier.BlockBuffer`.
        Without ``on_block`` nothing is materialized and only the count
        returns. ``root_window``/``cancel`` scope the run to one shard;
        ``fold`` names the aggregation folding the blocks on the span.
        """
        from repro.engines.frontier import BlockBuffer, run_plan_batched

        should_stop = cancel.is_set if cancel is not None else None
        batched = self.batch_roots is not None
        attributes = {"batch_roots": self.batch_roots} if batched else {}
        if fold is not None:
            attributes["fold"] = fold
        with self.kernel_span(
            "kernel.batched" if batched else "kernel",
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
            stats = self.stats
            if on_block is None:
                return run_plan(graph, plan, stats, None, root_window, should_stop)
            buffer = BlockBuffer(on_block)
            count = run_plan(graph, plan, stats, buffer, root_window, should_stop)
            # The tail block is consumed after the kernel closed its
            # wall-time window; its (UDF) seconds still belong to the total.
            start = time.perf_counter()
            try:
                buffer.flush()
            except StopExploration:
                pass  # the consumer saturated on the tail block
            stats.total_seconds += time.perf_counter() - start
            return count

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

    def _filter_block(
        self, graph: DataGraph, pattern: Pattern, rows: np.ndarray
    ) -> np.ndarray:
        """The Filter UDF over a block: a boolean row mask, one call per row."""
        keep = partial(self._filter_match, graph, pattern)
        return np.fromiter(map(keep, _as_matches(rows)), dtype=bool, count=len(rows))

    def _needs_filter(self, pattern: Pattern) -> bool:
        return bool(pattern.anti_edges) and not self.native_anti_edges

    def _plan_pattern(self, pattern: Pattern, graph: DataGraph) -> tuple[ExplorationPlan, bool]:
        """Plan for a pattern, with a flag for post-filtering anti-edges."""
        if self._needs_filter(pattern):
            return self.make_plan(pattern.edge_induced(), graph), True
        return self.make_plan(pattern, graph), False

    def compile_aggregate(
        self, graph: DataGraph, pattern: Pattern, aggregation: Aggregation
    ) -> tuple[Pattern, Aggregation]:
        """The ``(pattern, aggregation)`` pair that actually runs.

        Applied once wherever an aggregate is finalized — :meth:`aggregate`
        and :func:`repro.engines.execution.run_sharded` — so shards fold,
        merge and finalize the compiled pair. The identity here; GraphPi
        answers a count through the planner's ``Decompose`` rule.
        """
        return pattern, aggregation

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

        A whole-graph count is :meth:`aggregate` of a count, so it runs
        the engine's compiled pair. ``root_window`` restricts counting to
        the kernel's exact count of matches rooted in one vertex-id
        shard; ``cancel`` is a cancellation token (``set()`` /
        ``is_set()``) shared across shards of a parallel run.
        """
        if root_window is None:
            return self.aggregate(graph, pattern, CountAggregation())
        return self._count(graph, pattern, root_window, cancel)

    def _count(self, graph, pattern, root_window, cancel) -> int:
        """The kernel's count of ``pattern``, Filter UDF applied."""
        plan, needs_filter = self._plan_pattern(pattern, graph)
        if not needs_filter:
            return self._execute(graph, plan, root_window, cancel)
        kept = [0]

        def on_block(rows: np.ndarray) -> None:
            kept[0] += int(self._filter_block(graph, pattern, rows).sum())

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
        (the Figure 4a/b bottleneck) a block of matches at a time through
        :func:`deliver`, so its own frame is the only per-match Python.
        ``root_window``/``cancel`` scope the stream to one shard of a
        parallel run.
        """
        plan, needs_filter = self._plan_pattern(pattern, graph)
        stats = self.stats
        calls = stats.udf_calls
        if needs_filter:

            def on_block(rows: np.ndarray) -> None:
                # A match is filtered just before its call, so an early
                # stop leaves no row filtered ahead of it; the Filter UDF
                # keeps its own timer, so its share is taken back out of
                # the UDF's.
                done = 0
                filter_before = stats.filter_seconds
                start = time.perf_counter()
                try:
                    for match in _as_matches(rows):
                        if self._filter_match(graph, pattern, match):
                            process(pattern, match)
                            done += 1
                finally:
                    elapsed = time.perf_counter() - start
                    stats.udf_calls += done
                    stats.udf_seconds += elapsed - (
                        stats.filter_seconds - filter_before
                    )

        else:

            def on_block(rows: np.ndarray) -> None:
                deliver(process, pattern, _as_matches(rows), len(rows), stats)

        self._execute(graph, plan, root_window, cancel, on_block)
        return stats.udf_calls - calls

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

        An aggregation with ``from_block`` folds the kernel's blocks (one
        ``combine`` per block, Filter UDF applied to the rows first); the
        others fold match by match through :meth:`explore`.
        """
        if isinstance(aggregation, CountAggregation):
            # Native or filtered counting: no per-match fold needed.
            return self._count(graph, pattern, root_window, cancel), False

        box = [aggregation.zero()]
        if aggregation.from_block is not None:
            plan, needs_filter = self._plan_pattern(pattern, graph)
            stats = self.stats
            # A fold standing in for a per-match UDF is booked as one (a
            # call per row, its time); an engine-native one (a decomposed
            # count, whose set operations have their own timer) is not.
            per_match = aggregation.per_match_cost > 0

            def on_block(rows: np.ndarray) -> None:
                if needs_filter:
                    rows = rows[self._filter_block(graph, pattern, rows)]
                    if not len(rows):
                        return
                start = time.perf_counter()
                box[0] = aggregation.combine(
                    box[0], aggregation.from_block(graph, rows, stats)
                )
                if per_match:
                    stats.udf_calls += len(rows)
                    stats.udf_seconds += time.perf_counter() - start

            self._execute(
                graph, plan, root_window, cancel, on_block, aggregation.name
            )
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

        Runs the :meth:`compile_aggregate` pair. Counting takes the native
        fast path; any other aggregation pays one UDF invocation per match.
        """
        pattern, aggregation = self.compile_aggregate(graph, pattern, aggregation)
        value, _terminal = self.aggregate_partial(graph, pattern, aggregation)
        return aggregation.finalize(pattern, value)

    def run(
        self,
        graph: DataGraph,
        pattern: Pattern,
        aggregation: Aggregation | None = None,
    ):
        """Mine one pattern end-to-end, serially (a count by default).

        Sharded execution has one entry point,
        :func:`repro.engines.execution.run_sharded`, which a session
        reaches through ``RunOptions(workers=...)``.
        """
        if aggregation is None:
            aggregation = CountAggregation()
        return self.aggregate(graph, pattern, aggregation)
