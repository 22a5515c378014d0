"""The rewrite-rule space the planner searches over.

Three composable ways to answer a query, each priced by the shared cost
model (the DwarvesGraph/Geo observation that rewriting should be a
cost-driven search over an explicit rule space, not one hard-coded
greedy):

* :class:`DirectMatch` — hand the item to the engine as-is;
* :class:`SuperpatternMorph` — the paper's Algorithm 1 move: replace a
  pattern by the cheapest variants of its superpattern closure and
  recombine through the morphing equations (Eq. 1);
* :class:`Decompose` — split a *counting* item into a smaller prefix
  sub-pattern the engine enumerates plus independent suffix vertices
  recombined arithmetically through the inclusion–exclusion formula
  (:mod:`repro.plan.iep`) — engine-agnostic, and the one owner of
  inclusion–exclusion: GraphPi's IEP counting is this rule's best split,
  taken by the engine's compile step when it is priced below the direct
  match.

The decomposition identity, for an edge-induced pattern ``p`` with an
independent suffix set ``S`` whose removal leaves a connected prefix
``P`` (every ``s ∈ S`` keeps all its neighbors in ``P``):

    count(pᴱ) = ( Σ_{matches m of P} Σ_{a ∈ Aut(P)}
                  D([ C_s(m∘a) for s in S ]) ) / |Aut(p)|

where ``C_s(f) = ⋂_{w ∈ N(s)} N_G(f(w))`` (label-filtered, minus the
prefix images for injectivity) and ``D`` is the ordered-distinct count.
The automorphism sum collapses to a few *multiplicity classes* computed
once at plan time: automorphisms inducing the same family of anchor
sets contribute identical terms.

The sum over matches is additive, so it executes as a count-like fold
(:class:`DecomposedCount`): the match kernel hands over prefix matches a
block at a time, :func:`repro.plan.iep.block_distinct_counts` evaluates
``D`` for every row of the block as vector arithmetic, shards return
integer partial sums that merge by ``+``, and the division by
``|Aut(p)|`` happens once, on the merged total.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from repro.core.aggregation import Aggregation
from repro.core.canonical import pattern_id
from repro.core.costmodel import CostModel
from repro.core.equations import Item
from repro.core.pattern import MEMO_SIZE, Pattern
from repro.core.sdag import EDGE_INDUCED
from repro.engines.plan import PlanLevel
from repro.plan.iep import bell_number, block_distinct_counts

__all__ = [
    "Decompose",
    "DecomposedCount",
    "Decomposition",
    "DirectMatch",
    "RewriteRule",
    "SuperpatternMorph",
    "find_decompositions",
]

#: A suffix slot: (anchor prefix-vertex ids, required label or None).
SuffixSlot = tuple[tuple[int, ...], object]


@dataclass(frozen=True)
class Decomposition:
    """One way to split a counting item into prefix × IEP suffix.

    ``aut_classes`` holds the collapsed Aut(prefix) sum: each entry is a
    ``(family, multiplicity)`` pair where ``family`` is the tuple of
    suffix slots (anchor sets under that automorphism class) and
    ``multiplicity`` how many automorphisms induce it.
    """

    #: The edge-induced skeleton this decomposition answers.
    skeleton: Pattern
    #: Connected edge-induced sub-pattern the engine enumerates.
    prefix: Pattern
    #: Suffix slots in the prefix's own vertex numbering.
    suffix: tuple[SuffixSlot, ...]
    #: Collapsed automorphism sum: ((family, multiplicity), ...).
    aut_classes: tuple[tuple[tuple[SuffixSlot, ...], int], ...]
    #: |Aut(skeleton)| — the embeddings-per-occurrence divisor.
    pattern_automorphisms: int

    @property
    def suffix_size(self) -> int:
        """Number of pattern vertices answered arithmetically."""
        return len(self.suffix)

    @cached_property
    def families(self) -> tuple[tuple[tuple[PlanLevel, ...], int], ...]:
        """``aut_classes`` with every slot as a level over prefix columns."""

        def level(slot: SuffixSlot) -> PlanLevel:
            anchors, label = slot
            return PlanLevel(
                pattern_vertex=-1,
                backward_neighbors=anchors,
                backward_anti=(),
                upper_bounds=(),
                lower_bounds=(),
                non_adjacent=(),
                label=label,
            )

        return tuple(
            (tuple(level(slot) for slot in family), multiplicity)
            for family, multiplicity in self.aut_classes
        )

    @cached_property
    def _anchor_sets(self) -> frozenset[tuple[int, ...]]:
        """Distinct anchor unions over every partition block of every class.

        One per block pass :func:`~repro.plan.iep.block_distinct_counts`
        runs on a block of prefix matches (labels aside).
        """
        sets: set[tuple[int, ...]] = set()
        for family, _multiplicity in self.aut_classes:
            for size in range(1, len(family) + 1):
                for block in combinations(family, size):
                    sets.add(tuple(sorted({a for anchors, _ in block for a in anchors})))
        return frozenset(sets)

    def predicted_cost(self, cost_model: CostModel) -> float:
        """Relative cost: match the prefix, then the block passes' volume.

        Per prefix match the fold touches the block's own row, what each
        distinct anchor set's pass gathers — a lone anchor is a degree
        lookup and one probe per other prefix column, a wider set
        gathers one neighborhood and probes it against the others — and
        the Bell(k)·k vector terms of every automorphism class. All of
        it is vectorized, so an element is priced at
        :attr:`~repro.core.costmodel.EngineCostProfile.block_element_weight`
        of a kernel loop iteration.
        """
        prefix_cost = cost_model.pattern_cost(self.prefix, EDGE_INDUCED)
        prefix_matches = cost_model.estimated_matches(self.prefix, EDGE_INDUCED)
        neighborhood = cost_model.model.biased_degree
        k = self.suffix_size
        elements = self.prefix.n + len(self.aut_classes) * k * bell_number(k)
        for anchors in self._anchor_sets:
            if len(anchors) == 1:
                elements += self.prefix.n - 1
            else:
                elements += neighborhood * len(anchors)
        weight = cost_model.profile.block_element_weight
        return prefix_cost + prefix_matches * elements * weight


def _induced_prefix(
    skel: Pattern, kept: tuple[int, ...]
) -> tuple[Pattern, dict[int, int]]:
    """Sub-pattern of ``skel`` on ``kept`` vertices, renumbered densely."""
    remap = {v: i for i, v in enumerate(kept)}
    edges = [
        (remap[u], remap[v])
        for u, v in skel.edges
        if u in remap and v in remap
    ]
    labels = None
    if skel.labels is not None:
        labels = [skel.label(v) for v in kept]
    return Pattern(len(kept), edges, labels=labels), remap


def _slot_key(slot: SuffixSlot):
    anchors, label = slot
    return (anchors, repr(label))


def _aut_classes(
    prefix: Pattern, suffix: tuple[SuffixSlot, ...]
) -> tuple[tuple[tuple[SuffixSlot, ...], int], ...]:
    """Collapse Aut(prefix) into distinct anchor-set families."""
    from repro.core.isomorphism import automorphisms

    groups: dict[tuple[SuffixSlot, ...], int] = {}
    for aut in automorphisms(prefix):
        family = tuple(
            sorted(
                (
                    (tuple(sorted(aut[w] for w in anchors)), label)
                    for anchors, label in suffix
                ),
                key=_slot_key,
            )
        )
        groups[family] = groups.get(family, 0) + 1
    return tuple(sorted(groups.items(), key=lambda kv: repr(kv[0])))


@lru_cache(maxsize=MEMO_SIZE)
def find_decompositions(skel: Pattern) -> tuple[Decomposition, ...]:
    """Every legal prefix/suffix split of an edge-induced skeleton.

    A suffix set must be independent in ``skel`` (so suffix candidate
    sets are prefix-determined and the IEP formula applies) and of size
    ≥ 2 (a 1-suffix is the engines' ordinary fast path), and the
    remaining prefix must be connected and non-empty so any engine can
    enumerate it. Cliques admit no split (no independent pair), and
    vertex-induced items are never offered one — their anti-edges
    between suffix vertices would break candidate independence.
    """
    if skel.n < 3 or not skel.is_edge_induced or skel.is_clique:
        return ()
    from repro.core.isomorphism import automorphisms

    num_auts = len(automorphisms(skel))
    out: list[Decomposition] = []
    vertices = range(skel.n)
    for size in range(2, skel.n):
        for suffix_vertices in combinations(vertices, size):
            chosen = set(suffix_vertices)
            if any(
                skel.has_edge(u, v)
                for u, v in combinations(suffix_vertices, 2)
            ):
                continue
            kept = tuple(v for v in vertices if v not in chosen)
            prefix, remap = _induced_prefix(skel, kept)
            if not prefix.is_connected:
                continue
            suffix = tuple(
                (
                    tuple(sorted(remap[w] for w in skel.neighbors(s))),
                    skel.label(s),
                )
                for s in suffix_vertices
            )
            out.append(
                Decomposition(
                    skeleton=skel,
                    prefix=prefix,
                    suffix=suffix,
                    aut_classes=_aut_classes(prefix, suffix),
                    pattern_automorphisms=num_auts,
                )
            )
    return tuple(out)


class DecomposedCount(Aggregation):
    """A :class:`Decomposition` as a count-like fold over prefix matches.

    The value is ``Σ_matches Σ_classes multiplicity · D`` — an integer
    that adds across blocks and shards; :meth:`finalize` divides by
    ``|Aut(skeleton)|`` once. Engines run it through
    :attr:`~repro.core.aggregation.Aggregation.from_block`, so workers,
    retries, deadlines and checkpoints treat a decomposed item exactly
    like a count of its prefix.
    """

    invertible = True
    per_match_cost = 0.0

    def __init__(self, decomposition: Decomposition) -> None:
        self.decomposition = decomposition
        #: Also the checkpoint journal key: one per (skeleton, split).
        self.name = (
            f"decompose/{pattern_id(decomposition.skeleton):016x}"
            f"/{decomposition.suffix!r}"
        )

    def zero(self) -> int:
        """No prefix match folded yet."""
        return 0

    def from_match(self, pattern: Pattern, match) -> int:
        """Unsupported: candidate sets need the graph — see ``from_block``."""
        raise TypeError("a decomposed count folds blocks, not single matches")

    def from_block(self, graph, rows: np.ndarray, stats) -> int:
        """``Σ multiplicity · D`` over a block of prefix matches."""
        sizes: dict = {}
        total = 0
        for slots, multiplicity in self.decomposition.families:
            ordered = block_distinct_counts(graph, slots, rows, stats, sizes)
            total += multiplicity * int(ordered.sum())
        return total

    def combine(self, a: int, b: int) -> int:
        """Partial sums add."""
        return a + b

    def permute(self, value: int, f) -> int:
        """A count carries no vertex numbering."""
        return value

    def finalize(self, pattern: Pattern, value: int) -> int:
        """Embeddings / ``|Aut(p)|`` = occurrences (exact on a full sum)."""
        return value // self.decomposition.pattern_automorphisms


class RewriteRule:
    """One move in the planner's rewrite space.

    Rules are stateless deciders: :meth:`applies` gates legality for an
    ``(item, aggregation)`` pair, and the search prices the applicable
    moves against each other under the shared cost model.
    """

    name = "rule"

    def applies(self, item: Item, aggregation: Aggregation) -> bool:
        """Whether this rule may rewrite ``item`` under ``aggregation``."""
        raise NotImplementedError


class DirectMatch(RewriteRule):
    """Measure the item with the engine exactly as stated (always legal)."""

    name = "direct"

    def applies(self, item: Item, aggregation: Aggregation) -> bool:
        """Direct measurement is the universal fallback."""
        return True


class SuperpatternMorph(RewriteRule):
    """Algorithm 1's move: replace an item by its superpattern closure.

    Legal in both Eq. 1 directions for invertible aggregations; for
    non-invertible ones only edge-induced items may morph (the V-union
    direction), mirroring :func:`repro.plan.search.legal_variants`.
    """

    name = "morph"

    def applies(self, item: Item, aggregation: Aggregation) -> bool:
        """Invertible aggregations morph anything; others only E items."""
        return aggregation.invertible or item[1] == EDGE_INDUCED


class Decompose(RewriteRule):
    """Split a counting item into prefix matching plus IEP arithmetic.

    Only offered for invertible aggregations (the recombination is an
    arithmetic identity on counts — MNI tables, match lists and
    existence cannot be reassembled from sub-pattern aggregates) and
    only for edge-induced items (vertex-induced anti-edges between
    suffix vertices would invalidate candidate independence).
    """

    name = "decompose"

    def applies(self, item: Item, aggregation: Aggregation) -> bool:
        """Invertible aggregation + edge-induced non-clique item."""
        skel, variant = item
        if not aggregation.invertible or variant != EDGE_INDUCED:
            return False
        return bool(self.candidates(item))

    def candidates(self, item: Item) -> tuple[Decomposition, ...]:
        """All legal decompositions of the item's skeleton (memoized)."""
        return find_decompositions(item[0])

    def best(
        self, item: Item, cost_model: CostModel
    ) -> tuple[Decomposition, float] | None:
        """Cheapest decomposition under the cost model, or ``None``."""
        best: tuple[Decomposition, float] | None = None
        for dec in self.candidates(item):
            cost = dec.predicted_cost(cost_model)
            if best is None or cost < best[1]:
                best = (dec, cost)
        return best
