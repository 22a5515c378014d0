"""Plan compilation: generate specialized matching code per pattern.

AutoMine's defining trait is *compilation*: each pattern's schedule is
emitted as source code (C++ in the paper, specialized Python here) so the
matching loops carry no interpretive overhead — no per-level constraint
objects, no generic dispatch, constraints inlined as literals.

``compile_plan`` turns an :class:`~repro.engines.plan.ExplorationPlan`
into a Python function ``(graph, stats, on_match=None) -> int`` that is
behaviorally identical to :func:`repro.engines.base.run_plan` (same
counts, same set-operation accounting) but runs the unrolled loops.
``compiled_source`` exposes the generated code for inspection/debugging,
mirroring AutoMine's emitted kernels.

Only the per-root kernel is compiled. Under batching every engine runs
the one frontier kernel (:func:`repro.engines.frontier.run_plan_batched`):
all its time is inside numpy calls, so re-emitting it as source bought
nothing and kept a second copy of the frontier segmentation.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.engines.base import EngineStats, StopExploration, close_run
from repro.engines.plan import ExplorationPlan, PlanLevel

_COMPILED_CACHE: dict[tuple, Callable] = {}


def compiled_source(plan: ExplorationPlan) -> str:
    """The generated Python source for a plan's matching kernel."""
    lines: list[str] = [
        "def _kernel(graph, stats, on_match, root_window=None, should_stop=None):",
        "    setops = stats.setops",
        "    count = 0",
    ]
    depth = plan.depth
    indent = "    "

    def emit(line: str, level: int) -> None:
        lines.append(indent * (level + 1) + line)

    for i, level in enumerate(plan.levels):
        pad = i  # loop nesting depth before this level's loop opens
        cand = f"cand{i}"
        emit(f"# level {i}: pattern vertex {level.pattern_vertex}", pad)
        emit(_candidate_expr(level, i, cand), pad)
        for j in level.backward_anti:
            emit(
                f"{cand} = difference({cand}, graph.neighbors(v{j}), setops)",
                pad,
            )
        if level.upper_bounds:
            bound = _min_expr([f"v{j}" for j in level.upper_bounds])
            emit(f"{cand} = bound_above({cand}, {bound})", pad)
        if level.lower_bounds:
            bound = _max_expr([f"v{j}" for j in level.lower_bounds])
            emit(f"{cand} = bound_below({cand}, {bound})", pad)
        if level.label is not None and level.backward_neighbors:
            emit("if graph.is_labeled:", pad)
            emit(
                f"    {cand} = {cand}[graph.labels[{cand}] == {level.label!r}]",
                pad,
            )
        if level.non_adjacent:
            exclusions = ", ".join(f"v{j}" for j in level.non_adjacent)
            emit(f"{cand} = exclude({cand}, [{exclusions}])", pad)
        if i == 0:
            # Shard restriction: clip the root loop to the task's window.
            emit("if root_window is not None:", pad)
            emit(f"    {cand} = clip_to_window({cand}, root_window)", pad)

        poll = "if should_stop is not None and should_stop(): raise StopExploration()"
        if i == depth - 1:
            # Innermost level: fast-path count or per-match emission.
            emit("if on_match is None:", pad)
            if i == 0:
                emit(f"    {poll}", pad)
            emit(f"    count += len({cand})", pad)
            emit("else:", pad)
            emit(f"    for v{i} in {cand}.tolist():", pad)
            if i == 0:
                emit(f"        {poll}", pad)
            emit("        stats.materialized += 1", pad)
            match_tuple = _match_tuple(plan)
            emit(f"        on_match({match_tuple})", pad)
            emit("        count += 1", pad)
        else:
            emit(f"for v{i} in {cand}.tolist():", pad)
            if i == 0:
                emit(f"    {poll}", pad)
    lines.append("    return count")
    return "\n".join(lines)


def _candidate_expr(level: PlanLevel, index: int, cand: str) -> str:
    if level.backward_neighbors:
        first, *rest = level.backward_neighbors
        expr = f"graph.neighbors(v{first})"
        for j in rest:
            expr = f"intersect({expr}, graph.neighbors(v{j}), setops)"
        return f"{cand} = {expr}"
    if level.label is not None:
        return (
            f"{cand} = graph.vertices_by_label.get({level.label!r}, EMPTY) "
            "if graph.is_labeled else graph.all_vertices"
        )
    return f"{cand} = graph.all_vertices"


def _min_expr(names: list[str]) -> str:
    return names[0] if len(names) == 1 else "min(" + ", ".join(names) + ")"


def _max_expr(names: list[str]) -> str:
    return names[0] if len(names) == 1 else "max(" + ", ".join(names) + ")"


def _match_tuple(plan: ExplorationPlan) -> str:
    """Tuple literal arranging loop variables in pattern-vertex order."""
    by_vertex = {lv.pattern_vertex: i for i, lv in enumerate(plan.levels)}
    parts = ", ".join(f"v{by_vertex[u]}" for u in range(plan.pattern.n))
    return f"({parts},)" if plan.pattern.n == 1 else f"({parts})"


def compile_plan(plan: ExplorationPlan) -> Callable:
    """Compile a plan into a kernel ``(graph, stats, on_match) -> count``.

    Kernels are cached by the plan's structural signature, so recompiling
    the same shape is free (the analogue of AutoMine reusing compiled
    schedules).
    """
    key = tuple(level.signature + (level.non_adjacent,) for level in plan.levels) + (
        plan.pattern.n,
        tuple(lv.pattern_vertex for lv in plan.levels),
    )
    kernel = _COMPILED_CACHE.get(key)
    if kernel is None:
        source = compiled_source(plan)
        namespace: dict = {}
        from repro.engines.base import _EMPTY, clip_to_window
        from repro.engines.setops import (
            bound_above,
            bound_below,
            difference,
            exclude,
            intersect,
        )

        exec(  # noqa: S102 - the source is generated locally, not user input
            compile(source, f"<compiled-plan-{key[-1]}>", "exec"),
            {
                "intersect": intersect,
                "difference": difference,
                "bound_above": bound_above,
                "bound_below": bound_below,
                "exclude": exclude,
                "clip_to_window": clip_to_window,
                "StopExploration": StopExploration,
                "EMPTY": _EMPTY,
            },
            namespace,
        )
        kernel = namespace["_kernel"]
        _COMPILED_CACHE[key] = kernel
    return kernel


def run_compiled(
    graph,
    plan: ExplorationPlan,
    stats: EngineStats,
    on_match=None,
    root_window=None,
    should_stop=None,
) -> int:
    """Drop-in replacement for :func:`repro.engines.base.run_plan`."""
    kernel = compile_plan(plan)
    start = time.perf_counter()
    try:
        count = kernel(graph, stats, on_match, root_window, should_stop)
    except StopExploration:
        count = None
    return close_run(stats, start, count)
