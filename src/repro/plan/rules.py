"""The rewrite-rule space the planner searches over.

Three ways to answer a query, each priced by the shared cost model (the
DwarvesGraph/Geo observation that rewriting should be a cost-driven
search over an explicit rule space, not one hard-coded greedy):

* direct matching — hand the item to the engine as-is;
* superpattern morphing — the paper's Algorithm 1 move
  (:func:`repro.plan.search.select_alternative_patterns`): replace a
  pattern by the cheapest variants of its superpattern closure and
  recombine through the morphing equations (Eq. 1);
* :class:`Decompose` — split a *counting* item into a smaller prefix
  sub-pattern the engine enumerates plus independent suffix vertices
  recombined arithmetically through the inclusion–exclusion formula
  (:mod:`repro.plan.iep`) — engine-agnostic, and the one owner of
  inclusion–exclusion: GraphPi's IEP counting is this rule's best split,
  taken by the engine's compile step when it is priced below the direct
  match. Patterns with no independent suffix but a non-adjacent cut pair
  (``K₂,ₖ``, C4 among them) split at that pair instead (:class:`PairCut`).

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

A second kind of cut answers the patterns no independent suffix splits:
edge-induced ``K₂,ₖ`` (C4 is ``k = 2``) — two non-adjacent *cut*
vertices ``u, w`` and ``k`` twins adjacent to exactly both, all twins of
one label. Its prefix is the single vertex ``u``; a block of roots
gathers its 2-hop frontier ``u → a → w``, groups the wedges by their
``(u, w)`` pair and adds ``C(c_uw, k)`` (:class:`PairCut`). The pattern's
orbits orient the pair so that every occurrence is counted exactly once:
a vertex-transitive C4 takes ``u`` as its largest vertex (``a, w < u``),
two cut vertices of one label take ``w < u``, and two labels need
nothing.

Both kinds are cuts (:class:`Cut`): a prefix the engine enumerates plus an
integer term per block of its matches. Cuts with equal prefixes share
their blocks, so one :class:`DecomposedCount` folds a whole group of them
in one engine pass, evaluating every member on the same block against
one memo of candidate-set sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, factorial

import numpy as np

from repro.core.aggregation import Aggregation
from repro.core.canonical import pattern_id
from repro.core.costmodel import CostModel
from repro.core.equations import Item
from repro.core.pattern import MEMO_SIZE, Pattern
from repro.core.sdag import EDGE_INDUCED
from repro.engines.plan import PlanLevel
from repro.graph.partition import budget_ranges
from repro.plan.iep import _INT64_SAFE, bell_number, block_distinct_counts

__all__ = [
    "Cut",
    "Decompose",
    "DecomposedCount",
    "Decomposition",
    "PairCut",
    "find_decompositions",
    "find_pair_cuts",
]

#: A suffix slot: (anchor prefix-vertex ids, required label or None).
SuffixSlot = tuple[tuple[int, ...], object]


class Cut:
    """A counting item answered as a fold over one prefix's matches.

    Subclasses supply the prefix the engine enumerates, ``block_terms``
    (the integer a block of prefix matches contributes) and the divisor
    the merged sum takes; the price is the prefix's match cost plus
    :meth:`block_cost`, so a group of cuts sharing one prefix pays the
    prefix once.
    """

    skeleton: Pattern
    prefix: Pattern

    @property
    def key(self) -> str:
        """Stable text naming this cut (checkpoint keys build on it)."""
        raise NotImplementedError

    @property
    def divisor(self) -> int:
        """What the merged sum is divided by to give occurrences."""
        raise NotImplementedError

    def block_terms(self, graph, rows: np.ndarray, stats, sizes: dict) -> int:
        """This cut's integer sum over a block of prefix matches."""
        raise NotImplementedError

    def block_cost(self, cost_model: CostModel) -> float:
        """Predicted cost of the block work, beyond matching the prefix."""
        raise NotImplementedError

    def prefix_cost(self, cost_model: CostModel) -> float:
        """Predicted cost of enumerating the prefix."""
        return cost_model.pattern_cost(self.prefix, EDGE_INDUCED)

    def predicted_cost(self, cost_model: CostModel) -> float:
        """Relative cost: match the prefix, then the block work."""
        return self.prefix_cost(cost_model) + self.block_cost(cost_model)


@dataclass(frozen=True)
class Decomposition(Cut):
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

    @property
    def key(self) -> str:
        """``<skeleton id>/<suffix slots>``: one per (skeleton, split)."""
        return f"{pattern_id(self.skeleton):016x}/{self.suffix!r}"

    @property
    def divisor(self) -> int:
        """``|Aut(skeleton)|``: the sum counts every embedding."""
        return self.pattern_automorphisms

    def block_terms(self, graph, rows: np.ndarray, stats, sizes: dict) -> int:
        """``Σ multiplicity · D`` over a block of prefix matches."""
        total = 0
        for slots, multiplicity in self.families:
            ordered = block_distinct_counts(graph, slots, rows, stats, sizes)
            total += multiplicity * int(ordered.sum())
        return total

    def block_cost(self, cost_model: CostModel) -> float:
        """The block passes' volume over the prefix's matches.

        Per prefix match the fold touches the block's own row, what each
        distinct anchor set's pass gathers — a lone anchor is a degree
        lookup and one probe per other prefix column, a wider set
        gathers one neighborhood and probes it against the others — and
        the Bell(k)·k vector terms of every automorphism class. All of
        it is vectorized, so an element is priced at
        :attr:`~repro.core.costmodel.EngineCostProfile.block_element_weight`
        of a kernel loop iteration.
        """
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
        return prefix_matches * elements * weight


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


@dataclass(frozen=True)
class PairCut(Cut):
    """Edge-induced ``K₂,ₖ`` counted by wedge aggregation on its cut pair.

    The prefix is the root ``u`` (one vertex, carrying its cut vertex's
    label). On a block of roots the fold gathers every wedge
    ``u → a → w`` — ``a`` of the twins' label, ``w`` of the other cut
    vertex's, both bounded by :attr:`orientation` — groups the wedges by
    ``(u, w)`` and adds ``C(c_uw, k)``: the ``k`` twins are an unordered
    choice among the pair's ``c_uw`` common neighbours. The orientation
    makes every occurrence appear under exactly one ``(u, w)``, so the
    sum is the count itself (divisor 1).

    Roots are taken in chunks whose wedges fit
    :data:`~repro.engines.frontier.FRONTIER_ELEMENT_BUDGET` (a root whose
    own wedges exceed it is a chunk by itself: its pairs must be grouped
    together).
    """

    skeleton: Pattern
    #: The root: one vertex with the first cut vertex's label.
    prefix: Pattern
    #: ``k``, the number of twins.
    twins: int
    twin_label: object
    #: Label of the cut vertex ``w`` opposite the root.
    far_label: object
    #: How the pattern's orbits pick one assignment per occurrence:
    #: ``"max"`` (vertex-transitive C4: the root is the largest vertex,
    #: ``a, w < u``), ``"pair"`` (two cut vertices of one label:
    #: ``w < u``) or ``"none"`` (two cut labels: ``w != u``).
    orientation: str

    @property
    def suffix_size(self) -> int:
        """Vertices answered by the fold: the twins and ``w``."""
        return self.twins + 1

    @property
    def key(self) -> str:
        """``<skeleton id>/pair(<root label>, <far label>, <twin label>)``."""
        labels = (self.prefix.label(0), self.far_label, self.twin_label)
        return f"{pattern_id(self.skeleton):016x}/pair{labels!r}"

    @property
    def divisor(self) -> int:
        """The oriented sum already counts occurrences."""
        return 1

    @cached_property
    def _levels(self) -> tuple[PlanLevel, PlanLevel]:
        """The two hops as levels over ``(u,)`` and ``(u, a)`` columns."""
        oriented = self.orientation != "none"
        first = PlanLevel(
            pattern_vertex=-1,
            backward_neighbors=(0,),
            backward_anti=(),
            upper_bounds=(0,) if self.orientation == "max" else (),
            lower_bounds=(),
            non_adjacent=(),
            label=self.twin_label,
        )
        second = PlanLevel(
            pattern_vertex=-1,
            backward_neighbors=(1,),
            backward_anti=(),
            upper_bounds=(0,) if oriented else (),
            lower_bounds=(),
            non_adjacent=() if oriented else (0,),
            label=self.far_label,
        )
        return first, second

    def block_terms(self, graph, rows: np.ndarray, stats, sizes: dict) -> int:
        """``Σ_(u, w) C(c_uw, k)`` over a block of roots."""
        from repro.engines import frontier

        setops = stats.setops
        budget = frontier.FRONTIER_ELEMENT_BUDGET
        first, second = self._levels
        roots = rows[:, :1]
        values, starts, counts = frontier.level_cuts(graph, first, roots, setops)
        total = 0
        for lo, hi in budget_ranges(counts, budget):
            # The first hop filters nothing, so every gathered ``a`` keeps
            # its flat position: on the CSR that is the edge ``u → a``,
            # whose reverse position ends ``w < u`` in ``N(a)``.
            owner, at = frontier.gather_positions(starts[lo:hi], counts[lo:hi], setops)
            wedges = np.column_stack((roots[lo:hi, 0][owner], values[at]))
            through = (0, at) if values is graph.indices else None
            values2, starts2, counts2 = frontier.level_cuts(
                graph, second, wedges, setops, anchor_positions=through
            )
            # Wedge rows are grouped by root, in root order.
            bounds = np.searchsorted(owner, np.arange(hi - lo + 1))
            ends = np.concatenate(([0], np.cumsum(counts2)))
            for rlo, rhi in budget_ranges(ends[bounds[1:]] - ends[bounds[:-1]], budget):
                wlo, whi = bounds[rlo], bounds[rhi]
                wedge_rows, w = frontier.gather_candidates(
                    graph,
                    second,
                    wedges[wlo:whi],
                    values2,
                    starts2[wlo:whi],
                    counts2[wlo:whi],
                    setops,
                )
                pairs = owner[wlo:whi][wedge_rows].astype(np.int64)
                pairs *= graph.num_vertices
                pairs += w
                total += _choose_sum(_run_lengths(pairs), self.twins)
        return total

    def block_cost(self, cost_model: CostModel) -> float:
        """The gathered elements: each root, its first hop and its wedges.

        Hops follow the size-biased degree and each label's share, and
        an orientation bound halves the hop it cuts (the same
        symmetry-aware neighborhood the nested-loop model uses).
        """
        model = cost_model.model
        roots = cost_model.estimated_matches(self.prefix, EDGE_INDUCED)
        first = model.biased_degree * model.label_fraction(self.twin_label)
        second = model.biased_degree * model.label_fraction(self.far_label)
        if self.orientation == "max":
            first *= 0.5
        if self.orientation != "none":
            second *= 0.5
        elements = 1.0 + first * (1.0 + second)
        return roots * elements * cost_model.profile.block_element_weight


def _run_lengths(keys: np.ndarray) -> np.ndarray:
    """How many times each distinct value of ``keys`` occurs."""
    if not len(keys):
        return keys
    keys.sort()
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    return np.diff(np.concatenate(([0], starts, [len(keys)])))


def _choose_sum(counts: np.ndarray, k: int) -> int:
    """``Σ C(c, k)`` over ``counts``, exact past int64."""
    if not len(counts):
        return 0
    top = int(counts.max())
    if len(counts) * top**k >= _INT64_SAFE:
        values, times = np.unique(counts, return_counts=True)
        return sum(comb(int(c), k) * int(t) for c, t in zip(values, times))
    falling = np.ones(len(counts), dtype=np.int64)
    for i in range(k):
        falling *= counts - i
    return int(falling.sum()) // factorial(k)


@lru_cache(maxsize=MEMO_SIZE)
def find_pair_cuts(skel: Pattern) -> tuple[PairCut, ...]:
    """Every pair cut of an edge-induced ``K₂,ₖ`` skeleton (``k ≥ 2``).

    The skeleton must be two non-adjacent cut vertices whose only
    neighbours are the ``k`` twins, each twin adjacent to exactly both,
    and every twin of one label. A C4 has two opposite pairs and a cut
    may root at either cut vertex; equal cuts are offered once.
    """
    k = skel.n - 2
    if k < 2 or not skel.is_edge_induced or skel.num_edges != 2 * k:
        return ()
    found: dict[tuple, PairCut] = {}
    for pair in combinations(range(skel.n), 2):
        twins = [v for v in range(skel.n) if v not in pair]
        if skel.has_edge(*pair) or any(skel.neighbors(t) != set(pair) for t in twins):
            continue
        twin_labels = {skel.label(t) for t in twins}
        if len(twin_labels) > 1:
            continue
        (twin_label,) = twin_labels
        for u, w in (pair, pair[::-1]):
            root, far = skel.label(u), skel.label(w)
            if root != far:
                orientation = "none"
            elif k == 2 and twin_label == root:
                orientation = "max"
            else:
                orientation = "pair"
            prefix = Pattern(1, [], labels=None if root is None else [root])
            cut = PairCut(skel, prefix, k, twin_label, far, orientation)
            found.setdefault(cut.key, cut)
    return tuple(found[key] for key in sorted(found))


class DecomposedCount(Aggregation):
    """A group of cuts (:class:`Cut`) sharing one prefix, as one count-like fold.

    Every block of prefix matches is evaluated for every member against
    one memo of candidate-set sizes, so shared intersections cost one
    pass. The value is a tuple of integer partial sums, one per member,
    that adds element-wise across blocks and shards; :meth:`finalize`
    divides each by its member's divisor once. Engines run it through
    :attr:`~repro.core.aggregation.Aggregation.from_block`, so workers,
    deadlines and checkpoints treat a group exactly like a count of its
    prefix.
    """

    invertible = True
    per_match_cost = 0.0

    def __init__(self, members: tuple[Cut, ...]) -> None:
        self.members = tuple(members)
        #: Also the checkpoint journal key: one per group of splits.
        self.name = "decompose/" + "+".join(m.key for m in self.members)

    def zero(self) -> tuple[int, ...]:
        """No prefix match folded yet."""
        return (0,) * len(self.members)

    def from_match(self, pattern: Pattern, match) -> int:
        """Unsupported: candidate sets need the graph — see ``from_block``."""
        raise TypeError("a decomposed count folds blocks, not single matches")

    def from_block(self, graph, rows: np.ndarray, stats) -> tuple[int, ...]:
        """Every member's sum over one block of prefix matches."""
        sizes: dict = {}
        return tuple(m.block_terms(graph, rows, stats, sizes) for m in self.members)

    def combine(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Partial sums add, member by member."""
        return tuple(x + y for x, y in zip(a, b))

    def permute(self, value, f):
        """A count carries no vertex numbering."""
        return value

    def finalize(self, pattern: Pattern, value) -> tuple[int, ...]:
        """Each member's occurrences (exact on a full sum)."""
        return tuple(v // m.divisor for v, m in zip(value, self.members))


class Decompose:
    """Answer a counting item by a cut: prefix matching plus arithmetic.

    The candidates are the IEP splits (:func:`find_decompositions`) and
    the pair cuts (:func:`find_pair_cuts`). Only offered for invertible
    aggregations (the recombination is an arithmetic identity on counts
    — MNI tables, match lists and existence cannot be reassembled from
    sub-pattern aggregates) and only for edge-induced items
    (vertex-induced anti-edges between suffix vertices would invalidate
    candidate independence).
    """

    def applies(self, item: Item, aggregation: Aggregation) -> bool:
        """Invertible aggregation + edge-induced item with a cut."""
        skel, variant = item
        if not aggregation.invertible or variant != EDGE_INDUCED:
            return False
        return bool(self.candidates(item))

    def candidates(self, item: Item) -> tuple[Cut, ...]:
        """All legal cuts of the item's skeleton (memoized): IEP splits
        and pair cuts."""
        return find_decompositions(item[0]) + find_pair_cuts(item[0])

    def best(self, item: Item, cost_model: CostModel) -> tuple[Cut, float] | None:
        """Cheapest cut under the cost model, or ``None``."""
        best: tuple[Cut, float] | None = None
        for dec in self.candidates(item):
            cost = dec.predicted_cost(cost_model)
            if best is None or cost < best[1]:
                best = (dec, cost)
        return best
