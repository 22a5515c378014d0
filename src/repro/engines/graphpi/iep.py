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

This module is the plan-suffix *analysis* only (eligibility over
:class:`~repro.engines.plan.PlanLevel` constraints, and
:func:`iep_split`'s rewrite of a plan into a prefix plan plus suffix
slots). It is what keeps the plan's own symmetry breaking on the prefix,
so every shard's partial count is an integer — a
:class:`~repro.plan.rules.Decomposition` divides by ``|Aut|`` only after
all shards merge. Execution is not here: the engine runs the prefix
through whichever kernel the run selected and sizes the slots a block of
prefix matches at a time with
:func:`repro.plan.iep.block_distinct_counts`, the routine the planner's
``Decompose`` rule uses.
"""

from __future__ import annotations

from dataclasses import replace
from math import factorial

from repro.core.pattern import Pattern
from repro.engines.plan import ExplorationPlan, PlanLevel

__all__ = ["iep_split", "iep_suffix_length"]


def iep_suffix_length(plan: ExplorationPlan) -> int:
    """Longest eligible suffix (0 or >= 2; a 1-suffix is the fast path).

    At least the root level stays in the prefix: the prefix is what
    executes, and its root loop is what a parallel run shards.
    """
    depth = plan.depth
    best = 0
    for start in range(1, depth - 1):
        suffix = plan.levels[start:]
        if _eligible(suffix, start):
            best = depth - start
            break
    return best if best >= 2 else 0


def _eligible(suffix: tuple[PlanLevel, ...], start: int) -> bool:
    signatures = set()
    constrained_pairs = 0
    for level in suffix:
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


def _suffix_divisor(plan: ExplorationPlan, start: int) -> int:
    """k! when symmetry restrictions totally order an interchangeable suffix."""
    constrained = any(
        j >= start
        for level in plan.levels[start:]
        for j in level.upper_bounds + level.lower_bounds
    )
    return factorial(plan.depth - start) if constrained else 1


def iep_split(
    plan: ExplorationPlan, suffix_length: int
) -> tuple[ExplorationPlan, tuple[PlanLevel, ...], int]:
    """``(prefix plan, suffix slots, divisor)`` for an eligible suffix.

    The prefix is levels ``0..start-1`` as a plan of its own, its
    vertices numbered by level so its matches arrive with column ``i``
    holding level ``i``'s vertex — the numbering the slots' backward
    references use. The match count is the sum over prefix matches of
    the slots' ordered distinct assignments, divided by ``divisor``.
    """
    start = plan.depth - suffix_length
    slots = tuple(_prefix_only(level, start) for level in plan.levels[start:])
    levels = tuple(
        replace(level, pattern_vertex=i) for i, level in enumerate(plan.levels[:start])
    )
    edges = [(j, i) for i, level in enumerate(levels) for j in level.backward_neighbors]
    prefix = ExplorationPlan(Pattern(start, edges), levels)
    return prefix, slots, _suffix_divisor(plan, start)
