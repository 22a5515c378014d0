"""The rewrite planner: a cost-driven search over composable rules.

This package recasts alternative-pattern selection (Algorithm 1) as one
move — :class:`~repro.plan.rules.SuperpatternMorph` — inside an explicit
rewrite-rule space that also contains :class:`~repro.plan.rules
.DirectMatch` and the DwarvesGraph-style
:class:`~repro.plan.rules.Decompose` rule (prefix matching plus
inclusion–exclusion arithmetic, engine-agnostic). The search
(:func:`~repro.plan.search.search_plan`) prices every applicable rule
under the shared cost model and emits a typed
:class:`~repro.plan.rewrite.RewritePlan` the morphing session executes
uniformly.
"""

from repro.plan.iep import ordered_distinct_count, set_partitions
from repro.plan.rewrite import CombineStep, DecomposeStep, MeasureStep, RewritePlan
from repro.plan.rules import (
    Decompose,
    Decomposition,
    DirectMatch,
    RewriteRule,
    SuperpatternMorph,
    find_decompositions,
)
from repro.plan.search import (
    MAX_ROUNDS,
    MAX_SUBSET_CHILDREN,
    PlanTruncationWarning,
    STRATEGIES,
    SelectionResult,
    legal_variants,
    search_plan,
    select_alternative_patterns,
)

__all__ = [
    "CombineStep",
    "Decompose",
    "DecomposeStep",
    "Decomposition",
    "DirectMatch",
    "MAX_ROUNDS",
    "MAX_SUBSET_CHILDREN",
    "MeasureStep",
    "PlanTruncationWarning",
    "RewritePlan",
    "RewriteRule",
    "STRATEGIES",
    "SelectionResult",
    "SuperpatternMorph",
    "find_decompositions",
    "legal_variants",
    "ordered_distinct_count",
    "search_plan",
    "select_alternative_patterns",
    "set_partitions",
]
