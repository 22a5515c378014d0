"""GraphPi-style subgraph matching engine [57].

Reproduced behaviours:

* matching orders are selected by a *performance model*: candidate orders
  are enumerated and scored against the probabilistic cost model, and the
  cheapest is compiled into the plan (GraphPi's core idea of exploring
  the schedule/restriction space with a model);
* IEP counting: a count compiles to the planner's cheapest priced
  prefix/suffix split (:class:`~repro.plan.rules.Decompose`), the suffix
  answered by inclusion–exclusion arithmetic;
* symmetry breaking via restrictions (shared plan machinery);
* **no native anti-edge support**: vertex-induced queries match the
  edge-induced skeleton and apply a per-match Filter UDF with
  data-dependent edge-existence branches — the Figure 4d / Figure 14
  bottleneck that morphing eliminates.
"""

from __future__ import annotations

from itertools import permutations

from repro.core.aggregation import Aggregation, CountAggregation
from repro.core.costmodel import CostModel
from repro.core.pattern import Pattern
from repro.core.sdag import EDGE_INDUCED
from repro.engines.base import MiningEngine
from repro.engines.plan import ExplorationPlan
from repro.graph.datagraph import DataGraph
from repro.plan.rules import Decompose, DecomposedCount, Decomposition

#: Bound on the orders the performance model scores per pattern.
_MAX_ORDERS = 2000


class GraphPiEngine(MiningEngine):
    """Performance-model-driven edge-induced matcher (GraphPi-style).

    Counting additionally applies GraphPi's IEP optimization through
    :meth:`compile_aggregate`: independent suffix vertices are never
    iterated but counted by inclusion–exclusion over candidate-set
    intersections (:mod:`repro.plan.iep`).
    """

    name = "graphpi"
    native_anti_edges = False
    #: Toggle for the IEP counting optimization (ablation hook).
    use_iep = True

    def __init__(self) -> None:
        super().__init__()
        # Keyed by the graph's content fingerprint, never ``id(graph)``
        # (a freed graph's id is reused by the next one), and orders by
        # the pattern as numbered: an order is a permutation of *its*
        # vertices, so an isomorphic renumbering needs its own.
        self._order_cache: dict[tuple[Pattern, str], tuple[int, ...]] = {}
        self._split_cache: dict[tuple[Pattern, str], Decomposition | None] = {}

    def compile_aggregate(
        self, graph: DataGraph, pattern: Pattern, aggregation: Aggregation
    ) -> tuple[Pattern, Aggregation]:
        """A count runs as the planner's priced IEP split, when one wins.

        Only for edge-induced counts with :attr:`use_iep` set: the pair
        becomes ``(prefix, DecomposedCount)`` when ``Decompose`` prices
        its best split below matching the pattern directly. Vertex-induced
        patterns keep the Filter-UDF path.
        """
        if not (
            self.use_iep
            and isinstance(aggregation, CountAggregation)
            and pattern.is_edge_induced
        ):
            return pattern, aggregation
        key = (pattern, graph.fingerprint)
        if key not in self._split_cache:
            self._split_cache[key] = self._priced_split(graph, pattern)
        split = self._split_cache[key]
        if split is None:
            return pattern, aggregation
        return split.prefix, DecomposedCount(split)

    def _priced_split(self, graph: DataGraph, pattern: Pattern) -> Decomposition | None:
        """``Decompose``'s best split if priced below the direct match."""
        from repro.morph.profiles import profile_for

        cost_model = CostModel.for_graph(graph, profile_for(self))
        best = Decompose().best((pattern, EDGE_INDUCED), cost_model)
        if best is None or best[1] >= cost_model.pattern_cost(pattern, EDGE_INDUCED):
            return None
        return best[0]

    def make_plan(self, pattern: Pattern, graph: DataGraph) -> ExplorationPlan:
        order = self._select_order(pattern, graph)
        return ExplorationPlan.build(pattern, order=order)

    def _select_order(self, pattern: Pattern, graph: DataGraph) -> tuple[int, ...]:
        """Enumerate connected-prefix orders, keep the model's cheapest."""
        cache_key = (pattern, graph.fingerprint)
        cached = self._order_cache.get(cache_key)
        if cached is not None:
            return cached
        cost_model = CostModel.for_graph(graph)
        skel = pattern.edge_induced()
        best_order: tuple[int, ...] | None = None
        best_cost = float("inf")
        scored = 0
        for order in permutations(range(pattern.n)):
            if not _connected_prefix(skel, order):
                continue
            cost = cost_model.order_cost(skel, EDGE_INDUCED, list(order))
            scored += 1
            if cost < best_cost:
                best_cost = cost
                best_order = order
            if scored >= _MAX_ORDERS:
                break
        assert best_order is not None, "connected patterns always admit an order"
        self._order_cache[cache_key] = best_order
        return best_order


def _connected_prefix(pattern: Pattern, order: tuple[int, ...]) -> bool:
    """Every vertex after the first must touch an earlier one."""
    placed: set[int] = set()
    for i, v in enumerate(order):
        if i > 0 and not (pattern.neighbors(v) & placed):
            return False
        placed.add(v)
    return True
