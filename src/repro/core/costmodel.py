"""Relative pattern cost estimation (Section 5.2).

The data graph is abstracted as a probabilistic graph where any two
vertices are adjacent with a fixed probability; matching a pattern is
modeled as nested loops over this abstract graph, and the cost is the
total expected loop work plus the application's aggregation work on the
expected matches. Two enhancements from the paper are implemented:

* **high-degree restriction** — profiling showed the top-degree vertices
  (95th percentile) contribute 66–99% of matches and most of the time;
  the model captures hub dominance through the size-biased mean degree
  (edges lead to hubs) and the graph's clustering coefficient;
* **symmetry-aware neighborhoods** — partial orders for symmetry breaking
  halve the usable neighborhood per ordering constraint, so constrained
  loops iterate over the expected number of smaller/larger-id neighbors.

Costs are *relative*: they only need to rank patterns and alternative
sets correctly per system and application, which is how Algorithm 1 uses
them. Per-system weighting lives in :class:`EngineCostProfile`
(instances in :mod:`repro.morph.profiles`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.aggregation import Aggregation, CountAggregation
from repro.core.pattern import Pattern
from repro.core.sdag import EDGE_INDUCED, VERTEX_INDUCED
from repro.graph.datagraph import DataGraph


@dataclass(frozen=True)
class GraphModel:
    """Probabilistic abstraction of a data graph.

    Beyond the basic Erdős–Rényi abstraction (a fixed edge probability),
    the model carries two corrections for real, heavy-tailed graphs that
    implement the spirit of the paper's enhancements:

    * ``biased_degree`` — ``E[d²]/E[d]``, the expected degree of a vertex
      reached by following an edge. Exploration walks edges, so candidate
      neighborhoods follow the *size-biased* degree distribution — this is
      what the paper's high-degree (95th percentile) restriction captures:
      the few hub vertices dominate the work.
    * ``closure_prob`` — the global clustering coefficient, used as the
      probability that a second backward edge closes (far higher than the
      raw edge probability in clustered mining graphs).
    """

    num_vertices: float
    edge_prob: float
    avg_degree: float
    #: Size-biased mean degree E[d²]/E[d] (hub-dominance correction).
    biased_degree: float
    #: Probability a wedge closes into a triangle (clustering coefficient).
    closure_prob: float
    #: Degree at the 95th percentile (reported for introspection).
    high_degree_threshold: float
    #: Fraction of vertices per label (empty for unlabeled graphs).
    label_fractions: dict[int, float] = field(default_factory=dict, hash=False)

    @classmethod
    def from_graph(cls, graph: DataGraph, percentile: float = 95.0) -> "GraphModel":
        # Memoize on the (immutable) graph: sessions rebuild cost models
        # per run — FSM once per level — and the clustering-coefficient
        # scan is the expensive part.
        cached = getattr(graph, "_graph_model_cache", None)
        if cached is not None and cached[0] == percentile:
            return cached[1]
        model = cls._build(graph, percentile)
        graph._graph_model_cache = (percentile, model)  # type: ignore[attr-defined]
        return model

    @classmethod
    def _build(cls, graph: DataGraph, percentile: float) -> "GraphModel":
        import numpy as np

        n = max(graph.num_vertices, 2)
        edge_prob = min(1.0, 2.0 * graph.num_edges / (n * (n - 1)))
        # Degree moments come straight off the CSR row pointers: one
        # vectorized diff, no per-vertex adjacency loop.
        degrees = np.diff(graph.indptr).astype(float)
        mean_degree = max(float(degrees.mean()), 1e-9)
        biased = float((degrees**2).mean()) / mean_degree

        closure = _clustering_coefficient(graph)
        if closure <= 0.0:
            closure = edge_prob

        fractions = {}
        if graph.is_labeled:
            for lab, vs in graph.vertices_by_label.items():
                fractions[lab] = len(vs) / graph.num_vertices
        return cls(
            num_vertices=float(n),
            edge_prob=edge_prob,
            avg_degree=graph.avg_degree,
            biased_degree=biased,
            closure_prob=min(closure, 1.0),
            high_degree_threshold=float(graph.high_degree_threshold(percentile)),
            label_fractions=fractions,
        )

    def label_fraction(self, label) -> float:
        if label is None or not self.label_fractions:
            return 1.0
        return max(self.label_fractions.get(label, 0.0), 1.0 / self.num_vertices)


def _clustering_coefficient(graph: DataGraph, max_samples: int = 2000) -> float:
    """Global clustering coefficient, sampled on large graphs."""
    import numpy as np

    rng = np.random.default_rng(7)
    vertices = np.flatnonzero(np.diff(graph.indptr) >= 2).tolist()
    if not vertices:
        return 0.0
    if len(vertices) > max_samples:
        vertices = rng.choice(vertices, size=max_samples, replace=False).tolist()
    closed = 0
    wedges = 0
    for v in vertices:
        neigh = graph.neighbors(v)
        d = len(neigh)
        wedges += d * (d - 1) // 2
        for i in range(d):
            a = int(neigh[i])
            rest = neigh[i + 1 :]
            if len(rest):
                closed += int(np.intersect1d(graph.neighbors(a), rest, assume_unique=True).size)
    return closed / wedges if wedges else 0.0


@dataclass(frozen=True)
class EngineCostProfile:
    """Relative operation weights of one matching system.

    Weights are expressed in units of one inner-loop iteration of the
    engine's matching kernel, so a ``difference_weight`` of 6 means one
    set difference costs about six loop iterations. ``native_anti_edges``
    distinguishes Peregrine/AutoZero (anti-edges become set differences in
    the plan) from GraphPi/BigJoin (anti-edges require matching the
    edge-induced skeleton and filtering each match with a UDF, the
    Fig. 14 bottleneck).
    """

    name: str = "generic"
    intersection_weight: float = 2.0
    difference_weight: float = 2.5
    #: Per match emitted to a callback (tuple construction + dispatch).
    materialize_weight: float = 1.5
    #: Per user-UDF invocation on a match.
    per_udf_call_weight: float = 2.5
    #: Per anti-edge existence probe in a Filter UDF.
    filter_check_weight: float = 0.4
    native_anti_edges: bool = True
    #: Wall seconds one abstract cost unit corresponds to on this
    #: engine. Only converts units to seconds (ETAs, cross-engine
    #: comparisons); within-engine *rankings* — everything Algorithm 1
    #: decides — are scale-invariant in it. Calibrated per engine by
    #: ``tools/calibrate_costmodel.py`` from stored cost audits.
    unit_seconds: float = 4e-6
    #: Cost units per element a vectorized block pass touches (the
    #: Decompose rule's suffix: per-row set sizes gathered and reduced
    #: over a whole block of prefix matches, then IEP vector arithmetic).
    #: One unit is a kernel loop iteration (~1 µs interpreted); a numpy
    #: pass moves an element in 10–40 ns, and 0.05 keeps the margin gate
    #: on the conservative side of that.
    block_element_weight: float = 0.05


class CostModel:
    """Pattern cost estimation for a (graph, engine, aggregation) triple."""

    def __init__(
        self,
        model: GraphModel,
        profile: EngineCostProfile | None = None,
        aggregation: Aggregation | None = None,
    ) -> None:
        self.model = model
        self.profile = profile or EngineCostProfile()
        self.aggregation = aggregation or CountAggregation()

    @classmethod
    def for_graph(
        cls,
        graph: DataGraph,
        profile: EngineCostProfile | None = None,
        aggregation: Aggregation | None = None,
    ) -> "CostModel":
        return cls(GraphModel.from_graph(graph), profile, aggregation)

    # -- match estimation -------------------------------------------------

    def estimated_matches(self, skel: Pattern, variant: str) -> float:
        """Expected number of unique matches under the graph model.

        Computed as the innermost-loop volume of the nested-loop profile,
        with symmetry-breaking constraints standing in for the
        automorphism quotient. Absolute accuracy is not required — the
        selection algorithm only compares patterns against each other.
        """
        _cost, matches = self._loop_profile(skel, variant)
        return matches

    # -- pattern cost -------------------------------------------------------

    def pattern_cost(self, skel: Pattern, variant: str) -> float:
        """Estimated relative time to match one pattern variant.

        Nested-loop model over the abstract graph plus the application's
        aggregation work on the estimated matches. For engines without
        native anti-edge support, the vertex-induced variant costs the
        edge-induced match work plus per-match materialization and filter
        probes (the Figure 14 baseline).
        """
        if variant not in (EDGE_INDUCED, VERTEX_INDUCED):
            raise ValueError(f"unknown variant {variant!r}")
        if skel.is_clique:
            variant = EDGE_INDUCED

        profile = self.profile
        if variant == VERTEX_INDUCED and not profile.native_anti_edges:
            # Match the edge-induced skeleton, materialize every match and
            # probe anti-edges per match (early exit halves the probes).
            base, matches_e = self._loop_profile(skel, EDGE_INDUCED)
            num_anti = skel.n * (skel.n - 1) // 2 - skel.num_edges
            expected_probes = 1.0 + num_anti / 2.0
            filter_cost = matches_e * (
                profile.materialize_weight
                + expected_probes * profile.filter_check_weight
            )
            _cost_v, matches_v = self._loop_profile(skel, VERTEX_INDUCED)
            return base + filter_cost + self._aggregation_cost(matches_v)

        loop, matches = self._loop_profile(skel, variant)
        return loop + self._aggregation_cost(matches)

    def pattern_set_cost(self, items) -> float:
        """Cost of matching a set of ``(skeleton, variant)`` items."""
        return sum(self.pattern_cost(skel, variant) for skel, variant in items)

    def _aggregation_cost(self, matches: float) -> float:
        per_match = self.aggregation.per_match_cost
        if per_match <= 0.0:
            return 0.0
        return matches * (
            per_match
            + self.profile.per_udf_call_weight
            + self.profile.materialize_weight
        )

    def order_cost(self, skel: Pattern, variant: str, order: list[int]) -> float:
        """Loop cost of matching with a specific matching order.

        This is the scoring function GraphPi-style order selection uses:
        it enumerates candidate orders and keeps the cheapest.
        """
        cost, _matches = self._loop_profile(skel, variant, order)
        return cost

    def _loop_profile(
        self, skel: Pattern, variant: str, order: list[int] | None = None
    ) -> tuple[float, float]:
        """Expected loop work and match volume of the nested-loop match.

        Candidate sizes follow the size-biased degree (edges lead to
        hubs), second and later backward edges close with the clustering
        coefficient, and each symmetry-breaking constraint halves the
        usable neighborhood (the paper's enhancement). Returns
        ``(cost, expected_matches)``; cost is in loop-iteration units and
        excludes iterating the innermost loop (the counting fast path
        never does).
        """
        m = self.model
        if order is None:
            order = matching_order(skel)
        anti_adj = (
            skel.vertex_induced().anti_adjacency
            if variant == VERTEX_INDUCED
            else skel.anti_adjacency
        )
        position = {v: i for i, v in enumerate(order)}
        constraints = _constraint_counts(skel, order)

        partial = 1.0
        cost = 0.0
        final_candidates = 1.0
        for i, v in enumerate(order):
            back_edges = sum(1 for w in skel.neighbors(v) if position[w] < i)
            back_anti = sum(1 for w in anti_adj[v] if position[w] < i)

            if i == 0:
                candidates = m.num_vertices * m.label_fraction(skel.label(v))
            else:
                if back_edges == 0:
                    candidates = m.num_vertices * m.label_fraction(skel.label(v))
                else:
                    candidates = m.biased_degree * m.label_fraction(skel.label(v))
                    candidates *= m.closure_prob ** (back_edges - 1)
                anti_prob = m.closure_prob if back_edges else m.edge_prob
                candidates *= (1.0 - anti_prob) ** back_anti
                # Symmetry enhancement: each partial-order constraint halves
                # the usable neighborhood (expected smaller/larger-id part).
                candidates *= 0.5 ** constraints[i]
                ops = (
                    max(back_edges - 1, 0) * self.profile.intersection_weight
                    + back_anti * self.profile.difference_weight
                )
                # Set-operation work happens once per partial match of the
                # previous level; weights are in loop-iteration units.
                cost += partial * ops
            if i < len(order) - 1:
                # The innermost loop is never iterated when counting (the
                # fast path takes the candidate array's length), so only
                # levels 0..n-2 contribute iteration overhead.
                partial *= max(candidates, 1e-12)
                cost += partial
            else:
                final_candidates = max(candidates, 0.0)
        return cost, partial * final_candidates



def _constraint_counts(skel: Pattern, order: list[int]) -> list[int]:
    """Symmetry-breaking constraints that become active at each level."""
    from repro.core.isomorphism import symmetry_breaking_conditions

    position = {v: i for i, v in enumerate(order)}
    counts = [0] * len(order)
    for u, v in symmetry_breaking_conditions(skel):
        counts[max(position[u], position[v])] += 1
    return counts


@lru_cache(maxsize=65536)
def _matching_order_cached(skel: Pattern) -> tuple[int, ...]:
    degrees = [skel.degree(v) for v in range(skel.n)]
    order = [max(range(skel.n), key=lambda v: (degrees[v], -v))]
    placed = set(order)
    while len(order) < skel.n:
        best = max(
            (v for v in range(skel.n) if v not in placed),
            key=lambda v: (
                sum(1 for w in skel.neighbors(v) if w in placed),
                degrees[v],
                -v,
            ),
        )
        order.append(best)
        placed.add(best)
    return tuple(order)


def matching_order(skel: Pattern) -> list[int]:
    """Default core-first matching order: densest vertex, then max backward
    connectivity — the heuristic Peregrine-style planners use."""
    return list(_matching_order_cached(skel))


#: Rough seconds per cost-model unit (one kernel loop iteration) on the
#: reference machine; used to translate profiled UDF times into the
#: relative units the rest of the model speaks. Only ratios matter, so
#: this constant needs to be right only to within a small factor.
UNIT_SECONDS = 4e-6


def profile_udf_cost(
    udf,
    pattern: Pattern,
    graph: DataGraph,
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Estimate a UDF's per-invocation cost in model units (Section 5.2).

    Implements the paper's profiling strategy: generate dummy matches by
    randomly selecting ``|V(p)|`` data vertices, time the UDF on them, and
    return the per-call cost. The UDF must accept a single match tuple
    (like the streaming vertex filters); exceptions from nonsense dummy
    matches are treated as ordinary work.
    """
    import time as _time

    import numpy as _np

    rng = _np.random.default_rng(seed)
    dummies = [
        tuple(int(v) for v in rng.choice(graph.num_vertices, size=pattern.n, replace=False))
        for _ in range(samples)
    ]
    start = _time.perf_counter()
    for match in dummies:
        try:
            udf(match)
        except Exception:
            pass
    elapsed = _time.perf_counter() - start
    return (elapsed / samples) / UNIT_SECONDS
