"""Cost-driven search over the rewrite-rule space (planner core).

This module owns the Algorithm 1 greedy (Section 5.2,
:func:`select_alternative_patterns`) that decides *which items to
measure*, recast as the :class:`~repro.plan.rules.SuperpatternMorph`
move inside a wider search. On top of it, :func:`search_plan` lets the
execution rules — :class:`~repro.plan.rules.DirectMatch` vs
:class:`~repro.plan.rules.Decompose` — compete per measured item under
the same cost model, and emits the typed
:class:`~repro.plan.rewrite.RewritePlan` the session executes.

Strategies:

* ``"direct"`` — no rewriting: measure each query as stated;
* ``"morph"`` — Algorithm 1 exactly, every item measured directly;
* ``"decompose"`` — Algorithm 1's measured set, but every item that
  admits a legal decomposition is answered by prefix + IEP arithmetic;
* ``"auto"`` (default) — Algorithm 1's measured set, with decomposition
  replacing direct measurement only where the cost model predicts a
  win by at least the session margin.

Because the execution rule never changes *which* items are measured,
``auto`` reproduces Algorithm 1's choices by construction — only how an
item's value is obtained may differ.

Algorithm 1's safety caps (``MAX_SUBSET_CHILDREN`` per-parent subsets,
``MAX_ROUNDS`` greedy passes) no longer drop work silently: hitting one
marks the :class:`SelectionResult` as truncated, records which cap
fired, and raises a :class:`PlanTruncationWarning`; the session mirrors
it into the ``plan.truncated`` metric.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import combinations

from repro.core.aggregation import Aggregation, CountAggregation
from repro.core.canonical import pattern_id
from repro.core.costmodel import CostModel
from repro.core.equations import (
    Item,
    UnderivableError,
    item_of,
    normalize_item,
    solve_query,
)
from repro.core.generation import superpattern_closure
from repro.core.pattern import Pattern
from repro.core.sdag import EDGE_INDUCED, VERTEX_INDUCED, SDag
from repro.observe.tracer import Tracer, timed_span
from repro.plan.rewrite import CombineStep, DecomposeStep, MeasureStep, RewritePlan
from repro.plan.rules import Decompose

__all__ = [
    "MAX_ROUNDS",
    "MAX_SUBSET_CHILDREN",
    "PlanTruncationWarning",
    "STRATEGIES",
    "SelectionResult",
    "legal_variants",
    "search_plan",
    "select_alternative_patterns",
]

#: Safety cap on the per-parent child subsets Algorithm 1 examines.
MAX_SUBSET_CHILDREN = 12
#: Safety cap on greedy passes (each pass strictly reduces total cost).
MAX_ROUNDS = 64

#: The rewrite strategies :func:`search_plan` accepts.
STRATEGIES = ("auto", "direct", "morph", "decompose")


class PlanTruncationWarning(RuntimeWarning):
    """Raised as a warning when a planner safety cap dropped candidates."""


@dataclass
class SelectionResult:
    """Outcome of Algorithm 1 plus the conversion bookkeeping."""

    #: Items the matching engine must measure.
    measured: frozenset[Item]
    #: Query pattern -> item describing its own direct measurement.
    query_items: dict[Pattern, Item]
    #: Query pattern -> True when its result comes from alternatives.
    morphed: dict[Pattern, bool]
    #: Estimated cost of the selected set and of the unmorphed query set.
    estimated_cost: float = 0.0
    estimated_query_cost: float = 0.0
    rounds: int = 0
    #: All per-item costs considered (for introspection / Fig. 15e).
    item_costs: dict[Item, float] = field(default_factory=dict)
    #: True when a safety cap (subset-children or rounds) dropped work.
    truncated: bool = False
    #: Which caps fired, e.g. ``("subset-children:house", "rounds")``.
    truncations: tuple[str, ...] = ()


def legal_variants(aggregation: Aggregation) -> tuple[str, ...]:
    """Variants an alternative pattern may take under this aggregation."""
    if aggregation.invertible:
        return (EDGE_INDUCED, VERTEX_INDUCED)
    return (VERTEX_INDUCED,)


def select_alternative_patterns(
    queries: list[Pattern],
    cost_model: CostModel,
    aggregation: Aggregation | None = None,
    sdag: SDag | None = None,
    margin: float = 0.6,
) -> SelectionResult:
    """Run Algorithm 1 and return the measured set plus metadata.

    ``margin`` is a conservatism factor: a replacement must be predicted
    to cost less than ``margin`` times what it saves. Cost estimates carry
    noise, and a marginal morph that turns out slower than the query is
    worse than no morph (the paper's §7.5 observation that several
    alternative sets underperform the query set).
    """
    aggregation = aggregation or CountAggregation()
    sdag = sdag or SDag.build(queries)
    variants = legal_variants(aggregation)
    truncations: list[str] = []

    # -- initializePatternCosts -------------------------------------------
    item_costs: dict[Item, float] = {}
    best_item: dict[int, Item] = {}
    for node in sdag:
        best = None
        for variant in (EDGE_INDUCED, VERTEX_INDUCED):
            item = normalize_item(node.skel, variant)
            if item in item_costs:
                continue
            item_costs[item] = cost_model.pattern_cost(*item)
        for variant in variants:
            item = normalize_item(node.skel, variant)
            if best is None or item_costs[item] < item_costs[best]:
                best = item
        assert best is not None
        best_item[node.id] = best
        node.cost = {
            EDGE_INDUCED: item_costs[normalize_item(node.skel, EDGE_INDUCED)],
            VERTEX_INDUCED: item_costs[normalize_item(node.skel, VERTEX_INDUCED)],
        }
        node.effective_cost = item_costs[best]
        node.best_variant = best[1]

    query_items = {q: item_of(q) for q in queries}
    morphable = {
        q: aggregation.invertible or query_items[q][1] == EDGE_INDUCED
        for q in queries
    }

    selected: set[Item] = {query_items[q] for q in queries}
    for item in selected:
        item_costs.setdefault(item, cost_model.pattern_cost(*item))
    initial_query_cost = sum(item_costs[query_items[q]] for q in queries)

    def closure_items(item: Item) -> frozenset[Item]:
        """The superpattern-closure measurement replacing ``item``.

        Every node of the item's closure (including its own) contributes
        its cheapest *legal* variant; the item's own slot thereby flips to
        whichever semantics the cost model prefers (Eq. 1 in either
        direction for counting, the V-union direction otherwise).
        """
        skel, _variant = item
        return frozenset(
            best_item[pattern_id(sup)] for sup in superpattern_closure(skel)
        )

    unmorphable_items = {query_items[q] for q in queries if not morphable[q]}

    # -- selectPatterns ------------------------------------------------------
    # The paper's greedy re-weights selected patterns to zero cost; here
    # that re-weighting is realized through set membership (an item already
    # in S costs nothing extra, a removed item saves its full cost), which
    # keeps the total measured cost strictly decreasing and guarantees
    # convergence.
    rounds = 0
    changed = True
    capped_parents: set[int] = set()
    while changed and rounds < MAX_ROUNDS:
        changed = False
        rounds += 1
        parent_ids: set[int] = set()
        for item in selected:
            for parent in sdag.parents(item[0]):
                parent_ids.add(parent.id)
        for pid in sorted(parent_ids):
            parent = sdag.node_by_id(pid)
            eligible = []
            for child_id in parent.children:
                child = sdag.node_by_id(child_id)
                for variant in (EDGE_INDUCED, VERTEX_INDUCED):
                    item = normalize_item(child.skel, variant)
                    if item in selected and item not in unmorphable_items:
                        eligible.append(item)
            eligible = sorted(set(eligible), key=repr)
            if len(eligible) > MAX_SUBSET_CHILDREN and pid not in capped_parents:
                capped_parents.add(pid)
                truncations.append(f"subset-children:node{pid}")
            eligible = eligible[:MAX_SUBSET_CHILDREN]
            for size in range(1, len(eligible) + 1):
                for subset in combinations(eligible, size):
                    subset_set = set(subset)
                    if not subset_set <= selected:
                        continue
                    replacement: set[Item] = set()
                    for item in subset:
                        replacement |= closure_items(item)
                    new_selected = (selected - subset_set) | replacement
                    if new_selected == selected:
                        continue
                    saved = sum(
                        item_costs[c] for c in subset_set if c not in replacement
                    )
                    added = sum(
                        item_costs[i] for i in replacement if i not in selected
                    )
                    if added < margin * saved:
                        selected = new_selected
                        changed = True
    if changed:
        truncations.append("rounds")

    if truncations:
        warnings.warn(
            "Algorithm 1 truncated its search "
            f"({', '.join(truncations)}); the selection is valid but may "
            "miss cheaper alternative sets",
            PlanTruncationWarning,
            stacklevel=2,
        )

    # -- prune to items actually used by conversions -------------------------
    measured = _prune(queries, query_items, selected, aggregation)

    morphed = {q: query_items[q] not in measured for q in queries}
    return SelectionResult(
        measured=frozenset(measured),
        query_items=query_items,
        morphed=morphed,
        estimated_cost=sum(item_costs.get(i, 0.0) for i in measured),
        estimated_query_cost=initial_query_cost,
        rounds=rounds,
        item_costs=item_costs,
        truncated=bool(truncations),
        truncations=tuple(truncations),
    )


def _prune(
    queries: list[Pattern],
    query_items: dict[Pattern, Item],
    selected: set[Item],
    aggregation: Aggregation,
) -> set[Item]:
    """Keep only the measured items some query's conversion consumes."""
    needed: set[Item] = set()
    for q in queries:
        item = query_items[q]
        if item in selected:
            needed.add(item)
            continue
        if aggregation.invertible:
            try:
                expression = solve_query(item, frozenset(selected))
            except UnderivableError:
                # Defensive: fall back to measuring the query directly.
                needed.add(item)
                continue
            needed.update(expression)
        else:
            skel, _variant = item
            for sup in superpattern_closure(skel):
                needed.add(normalize_item(sup, VERTEX_INDUCED))
    return needed


def _direct_selection(
    queries: list[Pattern],
    cost_model: CostModel,
    aggregation: Aggregation,
) -> SelectionResult:
    """The no-rewriting selection: measure each query as stated."""
    query_items = {q: item_of(q) for q in queries}
    item_costs = {
        item: cost_model.pattern_cost(*item)
        for item in set(query_items.values())
    }
    total = sum(item_costs[query_items[q]] for q in queries)
    return SelectionResult(
        measured=frozenset(query_items.values()),
        query_items=query_items,
        morphed={q: False for q in queries},
        estimated_cost=total,
        estimated_query_cost=total,
        rounds=0,
        item_costs=item_costs,
    )


def _combine_step(
    query: Pattern,
    selection: SelectionResult,
    aggregation: Aggregation,
) -> CombineStep:
    """Describe how ``query``'s answer is assembled from measurements."""
    item = selection.query_items[query]
    if item in selection.measured:
        return CombineStep(query=query, mode="identity", sources=(item,))
    if aggregation.invertible:
        try:
            expression = solve_query(item, selection.measured)
        except UnderivableError:
            expression = {}
        sources = tuple(sorted(expression, key=repr))
        return CombineStep(
            query=query,
            mode="solve",
            sources=sources,
            predicted_cost=float(len(sources)),
        )
    skel, _variant = item
    sources = tuple(
        sorted(
            {
                normalize_item(sup, VERTEX_INDUCED)
                for sup in superpattern_closure(skel)
            },
            key=repr,
        )
    )
    return CombineStep(
        query=query,
        mode="union",
        sources=sources,
        predicted_cost=float(len(sources)),
    )


def search_plan(
    queries: list[Pattern],
    cost_model: CostModel,
    aggregation: Aggregation | None = None,
    *,
    strategy: str = "auto",
    margin: float = 0.6,
    sdag: SDag | None = None,
    tracer: Tracer | None = None,
) -> RewritePlan:
    """Search the rewrite space and emit an executable plan.

    The :class:`~repro.plan.rules.SuperpatternMorph` move (Algorithm 1)
    decides the measured set; then ``DirectMatch`` and ``Decompose``
    compete per measured item. Under ``"auto"`` a decomposition must
    beat direct measurement by the same conservatism ``margin`` the
    greedy uses; ``"decompose"`` forces it wherever legal (testing /
    forcing the IEP path); ``"morph"`` and ``"direct"`` never decompose.

    Emits a ``selection`` span under the ambient tracer around the
    greedy, mirroring the session's historical span layout.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    aggregation = aggregation or CountAggregation()

    if strategy == "direct":
        selection = _direct_selection(queries, cost_model, aggregation)
    else:
        with timed_span(tracer, "selection", margin=margin) as span:
            selection = select_alternative_patterns(
                queries, cost_model, aggregation, sdag=sdag, margin=margin
            )
        span.attributes.update(
            rounds=selection.rounds,
            measured=len(selection.measured),
            morphed_queries=sum(selection.morphed.values()),
        )

    combine_steps = [_combine_step(q, selection, aggregation) for q in queries]
    # A measured item that answers exactly one query and feeds no other
    # conversion is matched as that query states it (its own vertex
    # numbering): the value then needs no renumbering, so a plan that
    # rewrites nothing returns exactly what the engine returns for the
    # queries as given — ordered match lists and MNI tables included.
    uses = Counter(source for c in combine_steps for source in c.sources)
    combine_steps = tuple(
        replace(c, mode="given")
        if c.mode == "identity" and uses[c.sources[0]] == 1
        else c
        for c in combine_steps
    )
    given = {c.sources[0]: c.query for c in combine_steps if c.mode == "given"}

    decompose = Decompose()
    measure_steps: list[MeasureStep] = []
    decompose_steps: list[DecomposeStep] = []
    for item in sorted(selection.measured, key=repr):
        direct_cost = selection.item_costs.get(item)
        if direct_cost is None:
            direct_cost = cost_model.pattern_cost(*item)
        if strategy in ("auto", "decompose") and decompose.applies(
            item, aggregation
        ):
            best = decompose.best(item, cost_model)
            if best is not None:
                dec, dec_cost = best
                if strategy == "decompose" or dec_cost < margin * direct_cost:
                    decompose_steps.append(
                        DecomposeStep(
                            item=item,
                            decomposition=dec,
                            predicted_cost=dec_cost,
                            direct_cost=direct_cost,
                        )
                    )
                    continue
        measure_steps.append(
            MeasureStep(
                item=item, predicted_cost=direct_cost, query=given.get(item)
            )
        )

    predicted = sum(s.predicted_cost for s in measure_steps) + sum(
        s.predicted_cost for s in decompose_steps
    )
    return RewritePlan(
        strategy=strategy,
        selection=selection,
        measure_steps=tuple(measure_steps),
        decompose_steps=tuple(decompose_steps),
        combine_steps=combine_steps,
        predicted_cost=predicted,
    )
