"""Typed rewrite plans: the DAG of measure/combine steps a search emits.

A :class:`RewritePlan` is the contract between the planner search and
the session executor: *what* to measure (one :class:`MeasureStep` or
:class:`DecomposeStep` per selected item, each carrying the rule that
placed it and its predicted cost) and *how* to recombine measurements
into query answers (one :class:`CombineStep` per query). The session
executes the plan uniformly — measure steps through the engine, combine
steps through the morphing-equation converters — so strategies differ
only in which steps the search emits, never in executor code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pattern import Pattern
from repro.core.equations import Item, materialize
from repro.plan.rules import Decomposition

__all__ = [
    "CombineStep",
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
    """Measure one item directly on the engine (the DirectMatch rule)."""

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


@dataclass(frozen=True)
class DecomposeStep:
    """Measure one counting item as a block fold: prefix matches × IEP."""

    item: Item
    decomposition: Decomposition
    predicted_cost: float
    #: Predicted cost of measuring the item directly instead (the
    #: alternative the search rejected; kept for audits and describe()).
    direct_cost: float = 0.0
    rule: str = "decompose"
    #: Never matched as a query states it (see :attr:`MeasureStep.query`):
    #: a decomposed count carries no vertex numbering.
    query = None

    @property
    def pattern(self) -> Pattern:
        """The prefix sub-pattern the engine matches for this step."""
        return self.decomposition.prefix


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
    decompose_steps: tuple[DecomposeStep, ...] = ()
    combine_steps: tuple[CombineStep, ...] = ()
    predicted_cost: float = 0.0

    #: Every measure/decompose step in the executor's fixed order
    #: (sorted by item), and the same steps keyed by item. Derived once
    #: at construction, so executing a cached plan re-sorts nothing.
    steps: tuple = field(init=False, repr=False, compare=False, hash=False)
    _step_by_item: dict = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        steps = tuple(
            sorted(
                self.measure_steps + self.decompose_steps,
                key=lambda s: repr(s.item),
            )
        )
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "_step_by_item", {s.item: s for s in steps})

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
        for step in self.steps:
            lines.append(
                f"  measure {item_label(step.item)}"
                f" [{step.rule}] cost≈{step.predicted_cost:.1f}"
            )
            if isinstance(step, DecomposeStep):
                dec = step.decomposition
                lines.append(
                    f"    prefix n={dec.prefix.n}"
                    f" suffix={dec.suffix_size}"
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
