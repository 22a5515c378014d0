"""The rewrite planner: a cost-driven search over composable rules.

This package recasts alternative-pattern selection (Algorithm 1) as one
move — superpattern morphing — inside an explicit rewrite-rule space
that also contains direct matching and the DwarvesGraph-style
:class:`~repro.plan.rules.Decompose` rule (prefix matching plus
inclusion–exclusion arithmetic, engine-agnostic; or, for ``K₂,ₖ``,
a :class:`~repro.plan.rules.PairCut`). The search
(:func:`~repro.plan.search.search_plan`) prices every applicable rule
under the shared cost model and emits a typed
:class:`~repro.plan.rewrite.RewritePlan` the morphing session executes
uniformly, one engine pass per measure step or per
:class:`~repro.plan.rewrite.CutGroup` of cuts sharing a prefix.
"""

from repro.plan.iep import ordered_distinct_count, set_partitions
from repro.plan.rewrite import (
    CombineStep,
    CutGroup,
    DecomposeStep,
    MeasureStep,
    RewritePlan,
)
from repro.plan.rules import (
    Decompose,
    Decomposition,
    PairCut,
    find_decompositions,
    find_pair_cuts,
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
    "CutGroup",
    "Decompose",
    "DecomposeStep",
    "Decomposition",
    "MAX_ROUNDS",
    "MAX_SUBSET_CHILDREN",
    "MeasureStep",
    "PairCut",
    "PlanTruncationWarning",
    "RewritePlan",
    "STRATEGIES",
    "SelectionResult",
    "find_decompositions",
    "find_pair_cuts",
    "legal_variants",
    "ordered_distinct_count",
    "search_plan",
    "select_alternative_patterns",
    "set_partitions",
]
