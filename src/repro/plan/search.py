"""Cost-driven search over the rewrite-rule space (planner core).

This module owns the Algorithm 1 greedy (Section 5.2,
:func:`select_alternative_patterns`) that decides *which items to
measure*, recast as the superpattern-morphing move inside a wider
search. On top of it, :func:`search_plan` lets the execution rules —
direct matching vs :class:`~repro.plan.rules.Decompose` — compete per
measured item under the same cost model, and emits the typed
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
from functools import partial
from itertools import combinations
from typing import Callable

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
from repro.core.generation import closure_members, superpattern_closure
from repro.core.pattern import Pattern
from repro.core.sdag import EDGE_INDUCED, VERTEX_INDUCED, SDag
from repro.observe.tracer import Tracer, timed_span
from repro.plan.rewrite import (
    CombineStep,
    DecomposeStep,
    MeasureStep,
    RewritePlan,
    group_by_prefix,
)
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


class _PricedOnRead:
    """:attr:`SelectionResult.item_costs`: a plain dict field, except that
    the closure nodes an early decline left unpriced
    (:attr:`SelectionResult.unpriced`) are priced into it on its first
    read — equality and ``repr`` read it too."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, result, owner=None):
        if result is None:
            return None  # the field's default: an empty map
        costs = result.__dict__[self.name]
        price = result.unpriced
        if price is not None:
            # Cleared only once filled: a concurrent reader prices the
            # same values again rather than seeing a partial map.
            price(costs)
            result.unpriced = None
        return costs

    def __set__(self, result, costs) -> None:
        result.__dict__[self.name] = {} if costs is None else costs


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
    item_costs: dict[Item, float] = _PricedOnRead()
    #: True when a safety cap (subset-children or rounds) dropped work.
    truncated: bool = False
    #: Which caps fired, e.g. ``("subset-children:house", "rounds")``.
    truncations: tuple[str, ...] = ()
    #: True when a one-query set was kept as stated without building the
    #: S-DAG (the result is the full search's; only the route differs).
    declined_early: bool = field(default=False, compare=False)
    #: Prices what an early decline left out of ``item_costs`` into it;
    #: called once, on that map's first read.
    unpriced: Callable[[dict], None] | None = field(
        default=None, compare=False, repr=False
    )

    def cost_of(self, item: Item) -> float | None:
        """``item``'s priced cost, without pricing the rest of
        ``item_costs``; ``None`` when it has none yet."""
        return self.__dict__["item_costs"].get(item)


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
    variants = legal_variants(aggregation)
    if sdag is None and len(queries) == 1:
        declined = _decline_alone(queries[0], cost_model, aggregation, margin)
        if declined is not None:
            return declined
    sdag = sdag or SDag.build(queries)
    truncations: list[str] = []

    # -- initializePatternCosts -------------------------------------------
    item_costs: dict[Item, float] = {}
    best_item: dict[int, Item] = {}
    for node in sdag:
        best = _price(node.skel, cost_model, variants, item_costs)
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
                    if not set(subset) <= selected:
                        continue
                    new_selected = _replace(
                        subset, selected, closure_items, item_costs, margin
                    )
                    if new_selected is not None:
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


def _price(
    skel: Pattern,
    cost_model: CostModel,
    variants: tuple[str, ...],
    item_costs: dict[Item, float],
) -> Item:
    """Price both variants of ``skel`` into ``item_costs``; return the
    cheapest *legal* one (the node's ``best_item``)."""
    items = {v: normalize_item(skel, v) for v in (EDGE_INDUCED, VERTEX_INDUCED)}
    for item in items.values():
        if item not in item_costs:
            item_costs[item] = cost_model.pattern_cost(*item)
    best = None
    for variant in variants:
        item = items[variant]
        if best is None or item_costs[item] < item_costs[best]:
            best = item
    assert best is not None
    return best


def _replace(subset, selected, closure_items, item_costs, margin):
    """Algorithm 1's move: ``selected`` with ``subset`` replaced by its
    closure items, or ``None`` unless that is predicted to pay.

    The replacement must change the set and cost less than ``margin``
    times what it saves; an item already in ``selected`` costs nothing
    extra, a removed one saves its full cost.
    """
    subset_set = set(subset)
    replacement: set[Item] = set()
    for item in subset:
        replacement |= closure_items(item)
    new_selected = (selected - subset_set) | replacement
    if new_selected == selected:
        return None
    saved = sum(item_costs[c] for c in subset_set if c not in replacement)
    added = sum(item_costs[i] for i in replacement if i not in selected)
    return new_selected if added < margin * saved else None


def _decline_alone(
    query: Pattern,
    cost_model: CostModel,
    aggregation: Aggregation,
    margin: float,
) -> SelectionResult | None:
    """Algorithm 1 on a one-query set, when it keeps the query as stated.

    With one query the first round offers one move, for every parent
    alike: replace the query's item by its closure's best items. If that
    does not pay (:func:`_replace`), nothing changes and the greedy ends
    after that round, so its result is this one, without the S-DAG: the
    same measured set, item costs (both variants of every closure node)
    and ``rounds=1``. ``None`` when the move pays: the full search runs.

    Only a prefix of the pricing decides. When the query's skeleton is
    cheapest in the query's own variant, the move saves nothing and is
    declined at once. Otherwise the closure is walked from that skeleton
    outward (by edge count), adding each node's best cost to what the
    move would add; costs are non-negative, so once that partial sum
    reaches ``margin`` times what the move saves, the move cannot pay.
    That is declared only when the sum clears the limit by a relative
    ``1e-9``, so float summation order cannot decide a tie; otherwise
    every node is priced and :func:`_replace` decides, as before. The
    nodes left unpriced are priced into ``item_costs`` on its first
    read (:attr:`SelectionResult.unpriced`). The walk builds the
    closure only as far as it reaches (:func:`closure_members`).
    """
    item = item_of(query)
    skel = item[0]
    variants = legal_variants(aggregation)
    item_costs: dict[Item, float] = {}
    # The closure starts at the skeleton itself, and has more members
    # unless that is a clique; they are built only as the walk reaches
    # them.
    best = {skel: _price(skel, cost_model, variants, item_costs)}
    priced, complete = 1, skel.is_clique
    morphable = aggregation.invertible or item[1] == EDGE_INDUCED
    if morphable and not complete and best[skel] != item:
        # The move saves the query's item and adds every best item.
        limit = margin * item_costs[item]
        limit += 1e-9 * abs(limit)
        added = item_costs[best[skel]]
        members = closure_members(skel)
        next(members)  # the skeleton
        while added <= limit:
            sup = next(members, None)
            if sup is None:
                complete = True
                break
            best[sup] = _price(sup, cost_model, variants, item_costs)
            added += item_costs[best[sup]]
            priced += 1
        if complete:
            moved = _replace(
                (item,),
                {item},
                lambda _item: frozenset(best.values()),
                item_costs,
                margin,
            )
            if moved is not None:
                return None
    cost = item_costs[item]
    return SelectionResult(
        measured=frozenset({item}),
        query_items={query: item},
        morphed={query: False},
        estimated_cost=cost,
        estimated_query_cost=cost,
        rounds=1,
        item_costs=item_costs,
        declined_early=True,
        unpriced=(
            None
            if complete
            else partial(_price_rest, skel, priced, cost_model, variants)
        ),
    )


def _price_rest(
    skel: Pattern,
    priced: int,
    cost_model: CostModel,
    variants: tuple[str, ...],
    item_costs: dict[Item, float],
) -> None:
    """:func:`_price` the members of ``skel``'s closure after its first
    ``priced`` into ``item_costs``."""
    for sup in superpattern_closure(skel)[priced:]:
        _price(sup, cost_model, variants, item_costs)


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

    The superpattern-morphing move (Algorithm 1) decides the measured
    set; then direct matching and ``Decompose`` compete per measured
    item. Under ``"auto"`` a decomposition must
    beat direct measurement by the same conservatism ``margin`` the
    greedy uses; ``"decompose"`` forces it wherever legal (testing /
    forcing the IEP path); ``"morph"`` and ``"direct"`` never decompose.
    The chosen decompositions are then grouped by prefix
    (:class:`~repro.plan.rewrite.CutGroup`): each group is one engine
    pass, its prefix priced once.

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
    measured = selection.measured
    for item in sorted(measured, key=repr) if len(measured) > 1 else measured:
        direct_cost = selection.cost_of(item)
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
                            prefix_cost=dec.prefix_cost(cost_model),
                        )
                    )
                    continue
        measure_steps.append(
            MeasureStep(
                item=item, predicted_cost=direct_cost, query=given.get(item)
            )
        )

    # Cuts with equal prefixes walk the same blocks: one pass per prefix.
    groups = group_by_prefix(decompose_steps)
    predicted = sum(s.predicted_cost for s in measure_steps) + sum(
        g.predicted_cost for g in groups
    )
    return RewritePlan(
        strategy=strategy,
        selection=selection,
        measure_steps=tuple(measure_steps),
        decompose_groups=groups,
        combine_steps=combine_steps,
        predicted_cost=predicted,
    )
