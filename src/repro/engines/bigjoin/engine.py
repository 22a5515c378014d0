"""BigJoin-style worst-case-optimal join engine [4].

BigJoin evaluates subgraph queries as a sequence of relational joins in a
dataflow system: bindings are extended one query vertex at a time,
breadth-first, with every intermediate binding batch materialized (its
"low-memory dataflow" batches rounds, but per-level materialization is
the structural signature). Reproduced behaviours:

* **breadth-first batch execution**: each level materializes the full
  prefix-binding table before the next level runs (the ``materialized``
  counter grows at every level, unlike the DFS engines);
* candidate extension through adjacency intersections (the worst-case
  optimal extend step);
* **no native anti-edge support**: vertex-induced queries need a
  per-match Filter UDF, exactly like GraphPi (Figure 4e / Figure 14b).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.aggregation import Match
from repro.engines.base import (
    MiningEngine,
    StopExploration,
    clip_to_window,
    close_run,
    level_candidates,
)
from repro.engines.plan import ExplorationPlan
from repro.graph.datagraph import DataGraph


class BigJoinEngine(MiningEngine):
    """Breadth-first worst-case-optimal join matcher (BigJoin-style)."""

    name = "bigjoin"
    native_anti_edges = False
    #: The BFS join below is the engine; ``batch_roots`` does not apply.
    batched_kernel = False
    kernel_name = "kernel.bfs"

    def _run_kernel(
        self,
        graph: DataGraph,
        plan: ExplorationPlan,
        on_match: Callable[[Match], None] | None = None,
        root_window=None,
        should_stop=None,
    ) -> int:
        """Level-synchronous join: extend all bindings by one vertex.

        ``root_window`` clips the level-0 candidates to one shard's
        vertex-id window; ``should_stop`` is polled per prefix binding
        (the BFS analogue of the DFS kernels' per-root-candidate poll).
        """
        start = time.perf_counter()
        stats = self.stats
        depth = plan.depth
        bindings: list[list[int]] = [[]]
        count: int | None = 0
        try:
            for level_index, level in enumerate(plan.levels):
                last = level_index == depth - 1
                next_bindings: list[list[int]] = []
                for binding in bindings:
                    if should_stop is not None and should_stop():
                        raise StopExploration()
                    cand = level_candidates(graph, level, binding, stats)
                    if level_index == 0 and root_window is not None:
                        cand = clip_to_window(cand, root_window)
                    if last and on_match is None:
                        count += int(len(cand))
                        stats.materialized += int(len(cand))
                        continue
                    for v in cand.tolist():
                        extended = binding + [v]
                        stats.materialized += 1
                        if last:
                            count += 1
                            on_match(plan.match_to_pattern_order(extended))
                        else:
                            next_bindings.append(extended)
                bindings = next_bindings
                if not bindings and not last:
                    count = 0
                    break
        except StopExploration:
            count = None
        return close_run(stats, start, count)
