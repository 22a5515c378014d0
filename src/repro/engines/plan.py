"""Exploration plans: pattern-specific matching programs (Section 2).

A plan fixes a matching order over the pattern's vertices and precomputes,
for every position, which earlier positions constrain the candidate set:
backward regular edges (intersections), backward anti-edges (set
differences), symmetry-breaking id bounds, and the required vertex label.
The shared kernel in :mod:`repro.engines.base` interprets plans; engines
differ in how they choose orders and group plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.isomorphism import symmetry_breaking_conditions
from repro.core.costmodel import matching_order
from repro.core.pattern import Pattern


@dataclass(frozen=True)
class PlanLevel:
    """Constraints for one nested-loop level of the plan."""

    pattern_vertex: int
    #: Positions (not vertex ids) of earlier loop levels joined by an edge.
    backward_neighbors: tuple[int, ...]
    #: Positions of earlier levels joined by an anti-edge.
    backward_anti: tuple[int, ...]
    #: Positions whose matched vertex must have a LARGER id than ours.
    upper_bounds: tuple[int, ...]
    #: Positions whose matched vertex must have a SMALLER id than ours.
    lower_bounds: tuple[int, ...]
    #: Positions of earlier levels not joined by a regular edge; the
    #: candidates must be explicitly checked distinct from these matches
    #: (regular-edge joins guarantee distinctness on their own).
    non_adjacent: tuple[int, ...]
    label: int | None

    @property
    def signature(self) -> tuple:
        """Structure key used for schedule merging (AutoZero)."""
        return (
            self.backward_neighbors,
            self.backward_anti,
            self.upper_bounds,
            self.lower_bounds,
            self.label,
        )


@dataclass(frozen=True)
class ExplorationPlan:
    """A full matching program for one pattern."""

    pattern: Pattern
    levels: tuple[PlanLevel, ...]

    @property
    def depth(self) -> int:
        return len(self.levels)

    @classmethod
    def build(
        cls,
        pattern: Pattern,
        order: Sequence[int] | None = None,
        symmetry_breaking: bool = True,
    ) -> "ExplorationPlan":
        """Compile a pattern into a plan.

        ``order`` overrides the default core-first matching order (GraphPi
        supplies performance-model-selected orders). With
        ``symmetry_breaking`` off the plan enumerates one match per
        automorphic image (used by tests to validate the conditions).
        """
        if order is None:
            order = matching_order(pattern)
        order = list(order)
        if sorted(order) != list(range(pattern.n)):
            raise ValueError("order must be a permutation of the pattern vertices")
        position = {v: i for i, v in enumerate(order)}

        conditions: tuple[tuple[int, int], ...] = ()
        if symmetry_breaking:
            conditions = symmetry_breaking_conditions(pattern)

        levels = []
        for i, v in enumerate(order):
            backward = tuple(
                sorted(position[w] for w in pattern.neighbors(v) if position[w] < i)
            )
            anti = tuple(
                sorted(
                    position[w] for w in pattern.anti_neighbors(v) if position[w] < i
                )
            )
            upper, lower = [], []
            for u, w in conditions:
                # condition (u, w): match(u) < match(w)
                if v == u and position[w] < i:
                    upper.append(position[w])
                elif v == w and position[u] < i:
                    lower.append(position[u])
            # Backward regular edges force distinctness (no self-loops), but
            # anti-edge differences do NOT remove the earlier vertex itself,
            # so anti positions still need the explicit injectivity check.
            non_adjacent = tuple(j for j in range(i) if j not in set(backward))
            levels.append(
                PlanLevel(
                    pattern_vertex=v,
                    backward_neighbors=backward,
                    backward_anti=anti,
                    upper_bounds=tuple(sorted(upper)),
                    lower_bounds=tuple(sorted(lower)),
                    non_adjacent=non_adjacent,
                    label=pattern.label(v),
                )
            )
        return cls(pattern=pattern, levels=tuple(levels))

    def match_to_pattern_order(self, stack: Sequence[int]) -> tuple[int, ...]:
        """Convert a per-level match stack into pattern-vertex indexing."""
        out = [0] * self.pattern.n
        for level, v in zip(self.levels, stack):
            out[level.pattern_vertex] = v
        return tuple(out)

    def describe(self) -> str:
        """Human-readable exploration plan (the paper's plan listings).

        One line per loop level showing where candidates come from and
        which constraints apply — the same information AutoMine prints in
        its generated schedules.
        """
        lines = []
        for i, level in enumerate(self.levels):
            parts = []
            if level.backward_neighbors:
                inter = " ∩ ".join(f"N(v{j})" for j in level.backward_neighbors)
                parts.append(inter)
            elif level.label is not None:
                parts.append(f"V[label={level.label}]")
            else:
                parts.append("V")
            for j in level.backward_anti:
                parts.append(f"∖ N(v{j})")
            constraints = []
            constraints += [f"< v{j}" for j in level.upper_bounds]
            constraints += [f"> v{j}" for j in level.lower_bounds]
            if level.label is not None and level.backward_neighbors:
                constraints.append(f"label={level.label}")
            suffix = f"  [{', '.join(constraints)}]" if constraints else ""
            lines.append(
                f"v{i} (pattern vertex {level.pattern_vertex}) ← "
                f"{' '.join(parts)}{suffix}"
            )
        return "\n".join(lines)
