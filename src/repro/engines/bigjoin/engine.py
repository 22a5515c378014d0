"""BigJoin-style worst-case-optimal join engine [4].

BigJoin evaluates subgraph queries as a sequence of relational joins in a
dataflow system: bindings are extended one query vertex at a time, with
intermediate bindings materialized in bounded batches ("low-memory
dataflow"). Reproduced behaviours:

* **batched level-synchronous extension**: the shared frontier kernel
  (:mod:`repro.engines.frontier`, the default) extends a whole batch of
  prefix bindings per level in element-budget rounds, BigJoin's
  batched-dataflow shape; ``batch_roots=0`` runs the per-root DFS
  reference instead, as for every engine;
* candidate extension through adjacency intersections (the worst-case
  optimal extend step);
* **no native anti-edge support**: vertex-induced queries need a
  per-match Filter UDF, exactly like GraphPi (Figure 4e / Figure 14b).
"""

from __future__ import annotations

from repro.engines.base import MiningEngine


class BigJoinEngine(MiningEngine):
    """Worst-case-optimal join matcher without native anti-edges."""

    name = "bigjoin"
    native_anti_edges = False
