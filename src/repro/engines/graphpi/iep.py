"""Inclusion-Exclusion Principle (IEP) counting, GraphPi-style.

GraphPi accelerates *counting* by never iterating the final pattern
vertices when they are mutually non-adjacent: after matching a prefix,
each remaining vertex's candidate set depends only on the prefix, and
the number of ways to pick *distinct* candidates is a small
inclusion-exclusion formula over candidate-set intersections instead of
nested loops. For the 4-star this collapses three leaf loops into
``C(|N(center)|, 3)``-style arithmetic.

Eligibility for a plan suffix of ``k >= 2`` levels:

* no pattern edges or anti-edges between suffix vertices (their
  candidate sets are then prefix-determined and mutually unconstrained);
* symmetry-breaking order constraints between suffix vertices are
  allowed only when the suffix levels are interchangeable (identical
  constraint signatures), in which case the ordered IEP count divides by
  ``k!`` — matching what the restrictions would have enumerated.

The ordered-distinct arithmetic itself is engine-agnostic and lives in
:mod:`repro.plan.iep`, shared with the rewrite planner's ``Decompose``
rule. What stays engine-side is the plan-suffix analysis (eligibility
over :class:`~repro.engines.plan.PlanLevel` constraints) and the two
executions over an :class:`~repro.engines.plan.ExplorationPlan`:
:func:`run_iep_blocks` expands the non-suffix levels with the batched
frontier kernel and sizes the suffix's candidate sets a block of prefix
matches at a time (the default), and :func:`run_iep_count` is the
per-root scalar reference (``batch_roots=0``).
"""

from __future__ import annotations

import time
from dataclasses import replace
from math import factorial

import numpy as np

from repro.core.pattern import Pattern
from repro.engines.base import (
    EngineStats,
    StopExploration,
    clip_to_window,
    level_candidates,
)
from repro.engines.plan import ExplorationPlan, PlanLevel
from repro.engines.setops import exclude
from repro.plan.iep import block_distinct_counts, ordered_distinct_count

__all__ = [
    "iep_suffix_length",
    "ordered_distinct_count",
    "run_iep_blocks",
    "run_iep_count",
]


def iep_suffix_length(plan: ExplorationPlan) -> int:
    """Longest eligible suffix (0 or >= 2; a 1-suffix is the fast path)."""
    depth = plan.depth
    best = 0
    for start in range(depth - 1):
        suffix = plan.levels[start:]
        if _eligible(suffix, start):
            best = depth - start
            break
    return best if best >= 2 else 0


def _eligible(suffix: tuple[PlanLevel, ...], start: int) -> bool:
    signatures = set()
    constrained_pairs = 0
    for offset, level in enumerate(suffix):
        index = start + offset
        # No structural references into the suffix itself.
        refs = set(level.backward_neighbors) | set(level.backward_anti)
        if any(j >= start for j in refs):
            return False
        bounds = set(level.upper_bounds) | set(level.lower_bounds)
        suffix_bounds = {j for j in bounds if j >= start}
        constrained_pairs += len(suffix_bounds)
        signatures.add(
            (
                level.backward_neighbors,
                level.backward_anti,
                tuple(j for j in level.upper_bounds if j < start),
                tuple(j for j in level.lower_bounds if j < start),
                level.label,
            )
        )
        _ = index
    if constrained_pairs == 0:
        return len(signatures) >= 1
    # Order constraints inside the suffix: only the fully-interchangeable
    # case (identical signatures, totally ordered) is handled by /k!.
    k = len(suffix)
    return len(signatures) == 1 and constrained_pairs == k * (k - 1) // 2


def _prefix_only(level: PlanLevel, start: int) -> PlanLevel:
    """A suffix level with the constraints between suffix vertices dropped."""
    return replace(
        level,
        upper_bounds=tuple(j for j in level.upper_bounds if j < start),
        lower_bounds=tuple(j for j in level.lower_bounds if j < start),
        non_adjacent=(),
    )


def _suffix_candidates(
    graph, level: PlanLevel, start: int, stack: list[int], stats: EngineStats
) -> np.ndarray:
    """Candidates for a suffix level using prefix constraints only."""
    cand = level_candidates(graph, _prefix_only(level, start), stack, stats)
    # Injectivity against the prefix (suffix-suffix handled by IEP).
    prefix_refs = [
        j
        for j in range(start)
        if j not in level.backward_neighbors
    ]
    if prefix_refs:
        cand = exclude(cand, [stack[j] for j in prefix_refs])
    return cand


def _suffix_divisor(plan: ExplorationPlan, start: int) -> int:
    """k! when symmetry restrictions totally order an interchangeable suffix."""
    constrained = any(
        j >= start
        for level in plan.levels[start:]
        for j in level.upper_bounds + level.lower_bounds
    )
    return factorial(plan.depth - start) if constrained else 1


def run_iep_blocks(
    graph,
    plan: ExplorationPlan,
    stats: EngineStats,
    suffix_length: int,
    *,
    batch_roots: int,
    root_window=None,
    should_stop=None,
    on_batch=None,
) -> int:
    """:func:`run_iep_count` on the batched frontier kernel.

    Levels ``0..start-1`` expand as an ordinary frontier; every block of
    prefix matches it emits is answered by
    :func:`repro.plan.iep.block_distinct_counts` over the suffix levels
    (their backward references are the block's columns), so no suffix
    vertex is ever enumerated. Requires a real prefix (``suffix_length <
    depth``).
    """
    from repro.engines.frontier import run_plan_batched

    start = plan.depth - suffix_length
    if start == 0:
        raise ValueError("a whole-plan IEP suffix has no prefix frontier")
    slots = tuple(_prefix_only(level, start) for level in plan.levels[start:])
    # The prefix as a plan of its own, its vertices numbered by level so
    # blocks arrive in level order — the numbering the slots refer to.
    levels = tuple(
        replace(level, pattern_vertex=i) for i, level in enumerate(plan.levels[:start])
    )
    edges = [(j, i) for i, level in enumerate(levels) for j in level.backward_neighbors]
    prefix = ExplorationPlan(Pattern(start, edges), levels)
    ordered = [0]

    def on_block(rows: np.ndarray) -> None:
        ordered[0] += int(block_distinct_counts(graph, slots, rows, stats).sum())

    prefix_matches = run_plan_batched(
        graph,
        prefix,
        stats,
        root_window=root_window,
        should_stop=should_stop,
        batch_roots=batch_roots,
        on_batch=on_batch,
        on_block=on_block,
    )
    if prefix_matches == 0:
        return 0  # empty, or stopped early (partial sums are discarded)
    total = ordered[0] // _suffix_divisor(plan, start)
    stats.matches += total - prefix_matches  # report matches, not prefixes
    return total


def run_iep_count(
    graph,
    plan: ExplorationPlan,
    stats: EngineStats,
    suffix_length: int,
    root_window=None,
    should_stop=None,
) -> int:
    """Count matches with IEP applied to the plan's eligible suffix.

    ``root_window`` clips the level-0 loop to one shard's vertex-id
    window (requires ``suffix_length < depth``, i.e. a real root loop);
    ``should_stop`` is polled per root candidate for cross-shard
    cancellation.
    """
    depth = plan.depth
    start = depth - suffix_length
    if start == 0 and root_window is not None:
        raise ValueError("whole-plan IEP suffix cannot be root-sharded")
    suffix = plan.levels[start:]
    divisor = _suffix_divisor(plan, start)

    stack: list[int] = [0] * depth
    total = 0

    def descend(level_index: int) -> int:
        if level_index == start:
            candidate_sets = [
                _suffix_candidates(graph, level, start, stack, stats)
                for level in suffix
            ]
            ordered = ordered_distinct_count(candidate_sets, stats)
            return ordered // divisor
        cand = level_candidates(graph, plan.levels[level_index], stack, stats)
        poll = level_index == 0 and should_stop is not None
        if level_index == 0 and root_window is not None:
            cand = clip_to_window(cand, root_window)
        subtotal = 0
        for v in cand.tolist():
            if poll and should_stop():
                raise StopExploration()
            stack[level_index] = v
            subtotal += descend(level_index + 1)
        return subtotal

    wall = time.perf_counter()
    stopped_early = False
    try:
        total = descend(0)
    except StopExploration:
        stopped_early = True
        total = 0
    stats.total_seconds += time.perf_counter() - wall
    if not stopped_early:
        stats.matches += total
    stats.patterns_matched += 1
    return total
