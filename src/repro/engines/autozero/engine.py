"""AutoZero: the paper's in-house AutoMine [40] + GraphZero [39] hybrid.

Differences from the Peregrine-style engine:

* ``count_set`` merges the schedules of all input patterns
  (:mod:`repro.engines.autozero.schedule`), so overlapping loop prefixes
  across patterns execute once — the reason Section 7.1 calls AutoZero
  "the best case for Subgraph Morphing": extra superpatterns in an
  alternative set are nearly free when their schedules share loops.
* Anti-edges are supported natively (GraphZero-style set differences), so
  motif counting runs without filter UDFs.

The real AutoZero emits C++ and compiles it with g++. Here single
patterns run on the shared kernels like every other engine's, and the
merged multi-pattern pass interprets the schedule trie (DESIGN.md §3
records the substitution — the schedule/merging structure, not codegen,
is what the reported set-operation reductions come from).
"""

from __future__ import annotations

from repro.core.pattern import Pattern
from repro.engines.autozero.schedule import execute_merged_counts, merge_schedules
from repro.engines.base import MiningEngine
from repro.graph.datagraph import DataGraph


class AutoZeroEngine(MiningEngine):
    """Compilation-style engine with merged multi-pattern schedules."""

    name = "autozero"
    native_anti_edges = True

    #: Sharing ratio of the most recent merged execution (1.0 = no sharing).
    last_sharing_ratio: float = 1.0

    def _count_shared(
        self, graph: DataGraph, patterns: list[Pattern]
    ) -> dict[Pattern, int]:
        """Count all patterns in one merged-schedule pass (a per-root DFS)."""
        plans = [self.make_plan(p, graph) for p in patterns]
        schedule = merge_schedules(plans)
        self.last_sharing_ratio = schedule.sharing_ratio
        with self.kernel_span(
            "kernel.merged",
            patterns=len(patterns),
            sharing_ratio=schedule.sharing_ratio,
        ):
            counts = execute_merged_counts(graph, schedule, self.stats)
        return {p: counts.get(p, 0) for p in patterns}
