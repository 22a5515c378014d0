"""SumPA-style engine: pattern-abstraction matching [19].

SumPA observes that a pattern *set* repeats exploration work whenever the
patterns share substructure, and fixes it by matching one *abstract
pattern* (a common subpattern) and completing each concrete pattern from
the shared partial matches. The paper lists SumPA among the systems
Subgraph Morphing applies to (Section 7); this engine reproduces its
core execution strategy:

1. ``count_set`` computes the maximum common connected subpattern of the
   edge-induced queries (:mod:`repro.engines.sumpa.abstraction`);
2. the abstraction is matched once, **without** symmetry breaking (every
   embedding, not occurrence — see below);
3. each abstract embedding is extended per concrete pattern through a
   *residual plan* over the vertices outside the designated embedding,
   counting extensions;
4. per-pattern embedding totals divide by ``|Aut(pattern)|`` to yield
   occurrence counts.

Correctness rests on the unique-decomposition identity documented in the
abstraction module. Vertex-induced patterns and singleton sets fall back
to the shared kernel (anti-edge constraints differ per pattern, so their
abstract matches cannot be shared). The residual extension walks one
abstract embedding at a time, so the whole path is the per-root
reference only (:attr:`MiningEngine.multi_pattern`): under batching
``count_set`` counts each pattern on the frontier kernel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.isomorphism import automorphisms
from repro.core.pattern import Pattern, normalize_edge
from repro.engines.base import MiningEngine, level_candidates
from repro.engines.plan import ExplorationPlan, PlanLevel
from repro.engines.sumpa.abstraction import embedding_of, maximum_common_subpattern
from repro.graph.datagraph import DataGraph


class SumPAEngine(MiningEngine):
    """Pattern-abstraction engine for multi-pattern counting."""

    name = "sumpa"
    native_anti_edges = True

    #: Abstractions smaller than this many edges share too little to pay.
    min_abstract_edges = 1
    #: The abstract pattern of the most recent shared pass (None: none ran).
    last_abstraction: Pattern | None = None

    def _count_shared(
        self, graph: DataGraph, patterns: list[Pattern]
    ) -> dict[Pattern, int]:
        shared = [p for p in patterns if p.is_edge_induced and p.n >= 2]
        counts = (
            self._count_via_abstraction(graph, shared) if len(shared) >= 2 else {}
        )
        for p in patterns:
            if p not in counts:
                counts[p] = self.count(graph, p)
        return counts

    # -- the abstraction path ------------------------------------------------

    def _count_via_abstraction(
        self, graph: DataGraph, patterns: list[Pattern]
    ) -> dict[Pattern, int]:
        abstract = maximum_common_subpattern(patterns)
        if abstract.num_edges < self.min_abstract_edges:
            return {p: self.count(graph, p) for p in patterns}
        self.last_abstraction = abstract

        residuals = [
            _ResidualPlan.build(abstract, p, embedding_of(abstract, p))
            for p in patterns
        ]
        totals = [0] * len(patterns)

        # Match the abstraction WITHOUT symmetry breaking: embeddings.
        abstract_plan = ExplorationPlan.build(abstract, symmetry_breaking=False)

        def on_block(rows: np.ndarray) -> None:
            for match in rows.tolist():
                for i, residual in enumerate(residuals):
                    totals[i] += residual.extensions(graph, match, self.stats)

        with self.kernel_span(
            "kernel.abstraction",
            patterns=len(patterns),
            abstract_edges=abstract.num_edges,
        ):
            self._execute(graph, abstract_plan, on_block=on_block)

        return {
            p: totals[i] // len(automorphisms(p))
            for i, p in enumerate(patterns)
        }


class _ResidualPlan(NamedTuple):
    """Extension of an abstract embedding to one concrete pattern."""

    #: one level per residual vertex; positions index the running
    #: assignment (the abstract embedding, then earlier residuals).
    levels: list[PlanLevel]
    #: concrete edges between abstract slots that the abstraction does
    #: not imply (e.g. a chord across the embedded image) — verified
    #: per abstract embedding before extension.
    extra_pairs: list[tuple[int, int]]

    @classmethod
    def build(
        cls, abstract: Pattern, pattern: Pattern, phi: tuple[int, ...]
    ) -> "_ResidualPlan":
        slot_of = {v: i for i, v in enumerate(phi)}  # slots 0..k-1: phi's images
        implied = {normalize_edge(phi[a], phi[b]) for a, b in abstract.edges}
        extra_pairs = [
            (slot_of[u], slot_of[v])
            for u, v in pattern.edges
            if u in slot_of and v in slot_of and normalize_edge(u, v) not in implied
        ]
        residual = [v for v in range(pattern.n) if v not in slot_of]
        levels = []
        while residual:
            # Next: the vertex most connected to what is assigned.
            v = min(
                residual,
                key=lambda v: (-len(pattern.neighbors(v) & slot_of.keys()), v),
            )
            residual.remove(v)
            neighbors = tuple(
                sorted(slot_of[w] for w in pattern.neighbors(v) if w in slot_of)
            )
            levels.append(
                PlanLevel(
                    pattern_vertex=v,
                    backward_neighbors=neighbors,
                    backward_anti=(),
                    upper_bounds=(),
                    lower_bounds=(),
                    non_adjacent=tuple(
                        s for s in range(len(slot_of)) if s not in neighbors
                    ),
                    label=pattern.label(v),
                )
            )
            slot_of[v] = len(slot_of)
        return cls(levels, extra_pairs)

    def extensions(self, graph: DataGraph, abstract_match, stats) -> int:
        """Number of ways to complete one abstract embedding."""
        assignment: list[int] = list(abstract_match)
        for su, sv in self.extra_pairs:
            if not graph.has_edge(assignment[su], assignment[sv]):
                return 0
        levels = self.levels
        if not levels:
            return 1

        def descend(i: int) -> int:
            cand = level_candidates(graph, levels[i], assignment, stats)
            if i == len(levels) - 1:
                return int(len(cand))
            total = 0
            assignment.append(0)
            for candidate in cand.tolist():
                assignment[-1] = candidate
                total += descend(i + 1)
            assignment.pop()
            return total

        return descend(0)
