"""Typed rewrite plans: the DAG of measure/combine steps a search emits.

A :class:`RewritePlan` is the contract between the planner search and
the session executor: *what* to measure (one :class:`MeasureStep` or
:class:`DecomposeStep` per selected item, each carrying the rule that
placed it and its predicted cost) and *how* to recombine measurements
into query answers (one :class:`CombineStep` per query). Decompose steps
whose cuts share a prefix form one :class:`CutGroup`, measured by one
engine pass. The session executes the plan uniformly — measure steps and
cut groups through the engine, combine steps through the
morphing-equation converters — so strategies differ only in which steps
the search emits, never in executor code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.pattern import Pattern
from repro.core.equations import Item, materialize
from repro.plan.rules import Cut

__all__ = [
    "CombineStep",
    "CutGroup",
    "DecomposeStep",
    "MeasureStep",
    "RewritePlan",
]


def item_label(item: Item) -> str:
    """Human-readable ``name^variant`` label for spans and describe()."""
    from repro.core.atlas import pattern_name

    skel, variant = item
    return f"{pattern_name(skel)}^{variant}"


@dataclass(frozen=True)
class MeasureStep:
    """Measure one item directly on the engine (direct matching)."""

    item: Item
    predicted_cost: float
    rule: str = "direct"
    #: Set when this step answers exactly one query and feeds no other
    #: conversion: the engine is handed that query as stated, so the
    #: value is already in the query's own vertex numbering (ordered
    #: match lists, MNI columns) and needs no conversion. Such values
    #: bypass the measurement cache, whose entries are canonical.
    query: Pattern | None = None

    @property
    def pattern(self) -> Pattern:
        """The concrete pattern the engine matches for this step."""
        return self.query if self.query is not None else materialize(self.item)

    @property
    def items(self) -> tuple[Item, ...]:
        """The items one engine pass of this step measures."""
        return (self.item,)

    @cached_property
    def label(self) -> str:
        """Span / progress / audit label (rendered once per step)."""
        return item_label(self.item)


@dataclass(frozen=True)
class DecomposeStep:
    """Measure one counting item by a cut: a fold over its prefix's matches."""

    item: Item
    decomposition: Cut
    predicted_cost: float
    #: Predicted cost of measuring the item directly instead (the
    #: alternative the search rejected; kept for audits and describe()).
    direct_cost: float = 0.0
    #: The share of ``predicted_cost`` that enumerates the prefix — paid
    #: once by a :class:`CutGroup`, whatever its size.
    prefix_cost: float = 0.0
    rule: str = "decompose"
    #: Never matched as a query states it (see :attr:`MeasureStep.query`):
    #: a decomposed count carries no vertex numbering.
    query = None

    @property
    def pattern(self) -> Pattern:
        """The prefix sub-pattern the engine matches for this step."""
        return self.decomposition.prefix


@dataclass(frozen=True)
class CutGroup:
    """Decompose steps whose cuts share one prefix: one engine pass.

    Equal prefixes have the same exploration plan and so the same
    blocks; the pass folds every member on each block
    (:class:`~repro.plan.rules.DecomposedCount`) and yields one value
    per item. Its predicted cost is the prefix counted once plus each
    member's block work.
    """

    steps: tuple[DecomposeStep, ...]
    rule = "decompose"

    @property
    def items(self) -> tuple[Item, ...]:
        """The members' items, in step order."""
        return tuple(s.item for s in self.steps)

    @property
    def members(self) -> tuple[Cut, ...]:
        """The members' cuts, in step order."""
        return tuple(s.decomposition for s in self.steps)

    @property
    def pattern(self) -> Pattern:
        """The shared prefix the engine matches."""
        return self.steps[0].pattern

    @cached_property
    def label(self) -> str:
        """The members' item labels joined by ``+`` (rendered once)."""
        return "+".join(item_label(item) for item in self.items)

    @property
    def predicted_cost(self) -> float:
        """The prefix once, plus every member's block work."""
        return self.steps[0].prefix_cost + sum(
            s.predicted_cost - s.prefix_cost for s in self.steps
        )

    def without(self, items) -> "CutGroup | None":
        """The group less ``items`` (``None`` when nothing is left)."""
        kept = tuple(s for s in self.steps if s.item not in items)
        return CutGroup(kept) if kept else None


def group_by_prefix(steps) -> tuple[CutGroup, ...]:
    """Decompose steps grouped by equal prefix, in first-step order."""
    groups: dict[Pattern, list[DecomposeStep]] = {}
    for step in steps:
        groups.setdefault(step.pattern, []).append(step)
    return tuple(CutGroup(tuple(members)) for members in groups.values())


@dataclass(frozen=True)
class CombineStep:
    """Recombine measured items into one query's answer.

    ``mode`` is ``"given"`` (the query itself was matched as stated —
    see :attr:`MeasureStep.query` — and its value passes through),
    ``"identity"`` (the query's own item was measured in canonical
    numbering and is renumbered back), ``"solve"`` (counting: signed
    integer combination from :func:`repro.core.equations.solve_query`)
    or ``"union"`` (Eq. 1's V-union direction for non-invertible
    aggregations).
    """

    query: Pattern
    mode: str
    sources: tuple[Item, ...]
    predicted_cost: float = 0.0


@dataclass(frozen=True)
class RewritePlan:
    """The search's output: measure steps + combine steps + bookkeeping.

    ``selection`` keeps the Algorithm 1 bookkeeping (query items,
    morphed flags, cost estimates) that the session's result object and
    audits report; the step tuples are the executable view of the same
    decision plus the per-item execution rule the search picked.
    """

    strategy: str
    selection: "SelectionResult"  # noqa: F821 - imported for typing below
    measure_steps: tuple[MeasureStep, ...] = ()
    decompose_groups: tuple[CutGroup, ...] = ()
    combine_steps: tuple[CombineStep, ...] = ()
    predicted_cost: float = 0.0

    #: Every measure/decompose step in a fixed order (sorted by item),
    #: the same steps keyed by item, and the executor's units — measure
    #: steps and cut groups, ordered by their first item. Derived once
    #: at construction, so executing a cached plan re-sorts nothing.
    steps: tuple = field(init=False, repr=False, compare=False, hash=False)
    units: tuple = field(init=False, repr=False, compare=False, hash=False)
    _step_by_item: dict = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        steps = _sorted(
            self.measure_steps + self.decompose_steps, lambda s: repr(s.item)
        )
        units = _sorted(
            self.measure_steps + self.decompose_groups, lambda u: repr(u.items[0])
        )
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "_step_by_item", {s.item: s for s in steps})

    @property
    def decompose_steps(self) -> tuple[DecomposeStep, ...]:
        """Every decompose step, group by group."""
        return tuple(s for group in self.decompose_groups for s in group.steps)

    def step_for(self, item: Item):
        """The measure/decompose step that produces ``item``'s value."""
        return self._step_by_item[item]

    @property
    def measured(self) -> frozenset[Item]:
        """All items the plan measures (mirrors ``selection.measured``)."""
        return self.selection.measured

    def describe(self) -> str:
        """Render the plan DAG as indented text (CLI ``--explain``)."""
        lines = [
            f"RewritePlan(strategy={self.strategy}, "
            f"predicted_cost={self.predicted_cost:.1f})"
        ]
        for unit in self.units:
            if isinstance(unit, MeasureStep):
                lines.append(
                    f"  measure {unit.label} [{unit.rule}]"
                    f" cost≈{unit.predicted_cost:.1f}"
                )
                continue
            lines.append(
                f"  fold prefix n={unit.pattern.n} [{unit.rule}]"
                f" cost≈{unit.predicted_cost:.1f}"
            )
            for step in unit.steps:
                dec = step.decomposition
                lines.append(
                    f"    measure {item_label(step.item)}"
                    f" {type(dec).__name__} suffix={dec.suffix_size}"
                    f" cost≈{step.predicted_cost:.1f}"
                    f" (direct≈{step.direct_cost:.1f})"
                )
        from repro.core.atlas import pattern_name

        for step in self.combine_steps:
            sources = ", ".join(item_label(i) for i in step.sources)
            lines.append(
                f"  combine {pattern_name(step.query)}"
                f" via {step.mode}: {sources}"
            )
        return "\n".join(lines)


def _sorted(members: tuple, key) -> tuple:
    """``members`` sorted by ``key``, which a lone member is not asked for."""
    return tuple(sorted(members, key=key)) if len(members) > 1 else members
