"""GraphPi-style subgraph matching engine [57].

Reproduced behaviours:

* matching orders are selected by a *performance model*: candidate orders
  are enumerated and scored against the probabilistic cost model, and the
  cheapest is compiled into the plan (GraphPi's core idea of exploring
  the schedule/restriction space with a model);
* symmetry breaking via restrictions (shared plan machinery);
* **no native anti-edge support**: vertex-induced queries match the
  edge-induced skeleton and apply a per-match Filter UDF with
  data-dependent edge-existence branches — the Figure 4d / Figure 14
  bottleneck that morphing eliminates.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from repro.core.canonical import pattern_id
from repro.core.costmodel import CostModel, GraphModel
from repro.core.pattern import Pattern
from repro.core.sdag import EDGE_INDUCED
from repro.engines.base import MiningEngine
from repro.engines.graphpi.iep import iep_split, iep_suffix_length
from repro.engines.plan import ExplorationPlan
from repro.graph.datagraph import DataGraph
from repro.plan.iep import block_distinct_counts

#: Bound on the orders the performance model scores per pattern.
_MAX_ORDERS = 2000


class GraphPiEngine(MiningEngine):
    """Performance-model-driven edge-induced matcher (GraphPi-style).

    Counting additionally applies GraphPi's IEP optimization: when the
    plan ends in mutually non-adjacent vertices, the final loops are
    replaced by an inclusion-exclusion formula over candidate-set
    intersections (:mod:`repro.engines.graphpi.iep`).
    """

    name = "graphpi"
    native_anti_edges = False
    #: Toggle for the IEP counting optimization (ablation hook).
    use_iep = True

    def __init__(self) -> None:
        super().__init__()
        self._model_cache: dict[int, GraphModel] = {}
        self._order_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def count(
        self, graph: DataGraph, pattern: Pattern, *, root_window=None, cancel=None
    ) -> int:
        if self.use_iep and not self._needs_filter(pattern):
            plan = self.make_plan(pattern, graph)
            suffix = iep_suffix_length(plan)
            if suffix:
                return self._count_iep(graph, plan, suffix, root_window, cancel)
        return super().count(graph, pattern, root_window=root_window, cancel=cancel)

    def _count_iep(self, graph, plan, suffix: int, root_window, cancel) -> int:
        """Match the prefix; answer every block of it by inclusion–exclusion."""
        prefix, slots, divisor = iep_split(plan, suffix)
        stats = self.stats
        ordered = [0]

        def on_block(rows: np.ndarray) -> None:
            ordered[0] += int(block_distinct_counts(graph, slots, rows, stats).sum())

        # The prefix run's own kernel span (nested here) carries the window.
        with self.kernel_span("kernel.iep", depth=plan.depth, suffix=suffix):
            prefix_matches = self._execute(
                graph, prefix, root_window, cancel, on_block
            )
        if prefix_matches == 0:
            return 0  # empty, or stopped early (partial sums are discarded)
        total = ordered[0] // divisor
        stats.matches += total - prefix_matches  # report matches, not prefixes
        return total

    def make_plan(self, pattern: Pattern, graph: DataGraph) -> ExplorationPlan:
        order = self._select_order(pattern, graph)
        return ExplorationPlan.build(pattern, order=order)

    def _graph_model(self, graph: DataGraph) -> GraphModel:
        key = id(graph)
        model = self._model_cache.get(key)
        if model is None:
            model = GraphModel.from_graph(graph)
            self._model_cache[key] = model
        return model

    def _select_order(self, pattern: Pattern, graph: DataGraph) -> tuple[int, ...]:
        """Enumerate connected-prefix orders, keep the model's cheapest."""
        cache_key = (pattern_id(pattern), id(graph))
        cached = self._order_cache.get(cache_key)
        if cached is not None:
            return cached
        cost_model = CostModel(self._graph_model(graph))
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
