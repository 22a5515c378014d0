"""Aggregation abstraction ``a = (λ, ⊕)`` (Section 4.3).

A graph mining application aggregates over matches: ``λ`` maps a match to
an aggregation value and ``⊕`` combines values commutatively. Subgraph
Morphing converts aggregation results directly through a permute operator
``∘*`` that adjusts a value for an isomorphic remapping of pattern
vertices (Eq. 2).

Whether ``⊕`` admits an inverse decides which morphing directions are
legal (DESIGN.md §6): counting does (integer subtraction), so counts may
be solved through any mix of variants; MNI tables and match streams do
not, so those conversions are restricted to the union direction of Eq. 1.

A match is a tuple of data vertices indexed by pattern vertex:
``match[u]`` is the data vertex that pattern vertex ``u`` mapped to.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

from repro.core.pattern import Pattern

Match = tuple[int, ...]


class Aggregation(ABC):
    """Interface for application aggregations.

    ``per_match_cost`` is the cost-model hint from Section 5.2: the
    relative amount of work the application performs per match (counting
    is free because engines count natively; MNI pays a per-match table
    update plus O(|V|) merges).
    """

    name: str = "aggregation"
    #: Does ``combine`` admit an inverse? Gates subtraction-based morphs.
    invertible: bool = False
    #: Relative per-match UDF work for the cost model (0 = engine-native).
    per_match_cost: float = 1.0
    #: Optional block-native ``λ``: ``from_block(graph, rows, stats)`` maps
    #: a whole ``(R, n)`` matrix of matches (one per row, pattern-vertex
    #: order) to the ``⊕`` of their values. Engines then hand the fold the
    #: match kernel's blocks instead of calling :meth:`from_match` once
    #: per match. ``None`` (the default) means per-match only.
    from_block = None

    @abstractmethod
    def zero(self) -> Any:
        """The identity element of ``⊕``."""

    @abstractmethod
    def from_match(self, pattern: Pattern, match: Match) -> Any:
        """``λ`` on a single match."""

    @abstractmethod
    def combine(self, a: Any, b: Any) -> Any:
        """The ``⊕`` operator. Must be commutative and associative."""

    def merge(self, a: Any, b: Any) -> Any:
        """Join two *partial* values from disjoint shards of one run.

        The shard-parallel execution layer folds per-shard values in
        shard order, so ``merge`` may rely on ``a`` preceding ``b`` in
        the root-vertex order — which is how match lists stay in the
        exact serial enumeration order. For order-insensitive
        aggregations this is just ``combine``.
        """
        return self.combine(a, b)

    @abstractmethod
    def permute(self, value: Any, f: Sequence[int]) -> Any:
        """The ``∘*`` operator: adjust a value for the remapping ``f``.

        ``f`` maps query-pattern vertices to alternative-pattern vertices
        (an element of ``φ(p, q)``); the returned value is the same
        aggregate re-expressed over the query pattern's vertices.
        """

    def scale(self, value: Any, k: int) -> Any:
        """``value ⊕ ... ⊕ value`` (k times, k possibly negative).

        Only invertible aggregations support negative ``k``; the default
        implementation repeats ``combine``.
        """
        if k < 0:
            raise TypeError(f"{self.name} does not support negative scaling")
        out = self.zero()
        for _ in range(k):
            out = self.combine(out, value)
        return out

    def finalize(self, pattern: Pattern, value: Any) -> Any:
        """Post-process a query's final value (idempotent).

        Engines enumerate one representative per *occurrence* (symmetry
        breaking), but some aggregations are defined over all
        *embeddings*; finalize bridges the two. The default is a no-op.
        """
        return value

    def is_terminal(self, value: Any) -> bool:
        """True when further matches cannot change ``value``.

        Engines stop exploring once an aggregation value saturates
        (Peregrine's early-termination optimization); only existence-like
        aggregations ever saturate.
        """
        return False


class CountAggregation(Aggregation):
    """Match counting: ``λ(m) = 1``, ``⊕`` is integer addition.

    Engines count natively (no UDF), so the per-match cost hint is zero;
    this is what makes counting workloads prefer edge-induced alternatives
    with fewer set operations (Section 7.1).
    """

    name = "count"
    invertible = True
    per_match_cost = 0.0

    def zero(self) -> int:
        return 0

    def from_match(self, pattern: Pattern, match: Match) -> int:
        return 1

    def combine(self, a: int, b: int) -> int:
        return a + b

    def merge(self, a: int, b: int) -> int:
        """Shard counts add."""
        return a + b

    def permute(self, value: int, f: Sequence[int]) -> int:
        return value

    def scale(self, value: int, k: int) -> int:
        return value * k


class MNIAggregation(Aggregation):
    """Minimum node image tables for FSM support (Section 2).

    The value is a tuple of vertex sets, one column per pattern vertex;
    ``⊕`` joins tables by unioning columns; support is the size of the
    smallest column. Permutation reindexes columns through the isomorphism
    (Figure 10). Union has no inverse, so only Eq. 1's union direction is
    legal.
    """

    name = "mni"
    invertible = False
    per_match_cost = 8.0

    def zero(self) -> tuple[frozenset[int], ...]:
        return ()

    def from_match(self, pattern: Pattern, match: Match) -> tuple[frozenset[int], ...]:
        return tuple(frozenset((v,)) for v in match)

    def combine(self, a, b):
        if not a:
            return b
        if not b:
            return a
        if len(a) != len(b):
            raise ValueError("cannot join MNI tables of different widths")
        return tuple(ca | cb for ca, cb in zip(a, b))

    def merge(self, a, b):
        """Shard tables union per node-image column (same as ``⊕``)."""
        return self.combine(a, b)

    def permute(self, value, f: Sequence[int]):
        if not value:
            return value
        # Column for query vertex u comes from alternative column f[u].
        return tuple(value[f[u]] for u in range(len(f)))

    def finalize(self, pattern: Pattern, value):
        """Close the table under the pattern's automorphism group.

        MNI is defined over all embeddings, but engines enumerate one
        representative per occurrence; every automorphic re-assignment of
        a match contributes its vertices to permuted columns, which is
        exactly the orbit-closure below. Idempotent (closures are).
        """
        if not value:
            return value
        from repro.core.isomorphism import automorphisms

        group = automorphisms(pattern)
        if len(group) == 1:
            return value
        return tuple(
            frozenset().union(*(value[a[u]] for a in group))
            for u in range(len(value))
        )

    @staticmethod
    def support(value) -> int:
        """MNI support: size of the smallest column (0 for no matches)."""
        if not value:
            return 0
        return min(len(col) for col in value)


class MatchListAggregation(Aggregation):
    """Materialize every match (subgraph enumeration's batched output)."""

    name = "matches"
    invertible = False
    per_match_cost = 2.0

    def zero(self) -> list[Match]:
        return []

    def from_match(self, pattern: Pattern, match: Match) -> list[Match]:
        return [match]

    def combine(self, a, b):
        return a + b

    def merge(self, a, b):
        """Shard lists concatenate in shard order.

        Shards are ascending root-vertex windows, so concatenating their
        match lists in shard order reproduces the serial enumeration
        order exactly — parallel enumeration output is byte-identical to
        the serial kernel's.
        """
        return a + b

    def permute(self, value, f: Sequence[int]):
        return [tuple(m[f[u]] for u in range(len(f))) for m in value]


class ExistenceAggregation(Aggregation):
    """Boolean "does any match exist" (clique finding / filtering probes)."""

    name = "exists"
    invertible = False
    per_match_cost = 0.1

    def zero(self) -> bool:
        return False

    def from_match(self, pattern: Pattern, match: Match) -> bool:
        return True

    def combine(self, a: bool, b: bool) -> bool:
        return a or b

    def merge(self, a: bool, b: bool) -> bool:
        """Any shard finding a match settles existence."""
        return a or b

    def permute(self, value: bool, f: Sequence[int]) -> bool:
        return value

    def is_terminal(self, value: bool) -> bool:
        return value  # one match settles existence
