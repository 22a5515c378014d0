"""AutoZero: the paper's in-house AutoMine [40] + GraphZero [39] hybrid.

Differences from the Peregrine-style engine:

* ``count_set`` merges the schedules of all input patterns
  (:mod:`repro.engines.autozero.schedule`), so overlapping loop prefixes
  across patterns execute once — the reason Section 7.1 calls AutoZero
  "the best case for Subgraph Morphing": extra superpatterns in an
  alternative set are nearly free when their schedules share loops.
* Anti-edges are supported natively (GraphZero-style set differences), so
  motif counting runs without filter UDFs.

The real AutoZero emits C++ and compiles it with g++; this substrate
interprets the same schedule structure directly (DESIGN.md §3 records the
substitution — the schedule/merging structure, not codegen, is what the
reported set-operation reductions come from).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.pattern import Pattern
from repro.engines.autozero.codegen import run_compiled
from repro.engines.autozero.schedule import execute_merged_counts, merge_schedules
from repro.engines.base import MiningEngine
from repro.graph.datagraph import DataGraph


class AutoZeroEngine(MiningEngine):
    """Compilation-style engine with merged multi-pattern schedules."""

    name = "autozero"
    native_anti_edges = True

    def _run_kernel(
        self, graph, plan, on_match=None, root_window=None, should_stop=None
    ):
        """Per-root single-pattern paths run *compiled* kernels (AutoMine-style).

        With ``batch_roots`` set the engine runs the shared frontier
        kernel like every other engine — there is nothing per-level left
        to specialize once each level is a handful of numpy calls.
        """
        with self.kernel_span(
            "kernel.compiled",
            depth=plan.depth,
            window=list(root_window) if root_window else None,
        ):
            return run_compiled(
                graph,
                plan,
                self.stats,
                on_match,
                root_window=root_window,
                should_stop=should_stop,
            )

    def count_set(
        self, graph: DataGraph, patterns: Iterable[Pattern]
    ) -> dict[Pattern, int]:
        """Count all patterns in one merged-schedule pass."""
        patterns = list(patterns)
        if not patterns:
            return {}
        if self.batch_roots is not None:
            # The merged-schedule interpreter is a per-root DFS by
            # construction; under batching each pattern runs the frontier
            # kernel on its own (no loop sharing to report).
            self.last_sharing_ratio = 1.0
            return super().count_set(graph, patterns)
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

    #: Sharing ratio of the most recent merged execution (1.0 = no sharing).
    last_sharing_ratio: float = 1.0
