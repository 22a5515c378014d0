"""Pattern graphs: the query objects of pattern-centric graph mining.

A :class:`Pattern` is a small graph whose vertices are ``0..n-1``. Besides
regular edges it may carry *anti-edges* (Section 2 of the paper): an
anti-edge ``{u, v}`` disqualifies any candidate subgraph in which the data
vertices matched to ``u`` and ``v`` are adjacent. Anti-edges are how the two
exploration semantics are encoded:

* an *edge-induced* pattern has no anti-edges — any extra edges among the
  matched data vertices are tolerated;
* a *vertex-induced* pattern has an anti-edge between every pair of
  vertices not joined by a regular edge — matches must be exact induced
  subgraphs.

Patterns may also carry per-vertex labels (used by FSM); a label of ``None``
on every vertex means the pattern is unlabeled.

Patterns are immutable and hashable. Structural equality (``==``) compares
the literal vertex numbering; isomorphism-aware identity goes through
:mod:`repro.core.canonical`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

#: Entries kept by every ``lru_cache`` in the package whose keys are an
#: open space (patterns, generated kernels: each distinct query can
#: bring new ones). Memos over a closed key space are unbounded.
MEMO_SIZE = 65536


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    """Return the canonical ``(min, max)`` form of an undirected edge."""
    if u == v:
        raise ValueError(f"self-loop on vertex {u} is not a valid pattern edge")
    return (u, v) if u < v else (v, u)


class Pattern:
    """An immutable small graph with edges, anti-edges and optional labels.

    Parameters
    ----------
    n:
        Number of vertices; vertices are the integers ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` regular edges.
    anti_edges:
        Iterable of ``(u, v)`` anti-edges; must be disjoint from ``edges``.
    labels:
        Optional sequence of ``n`` hashable vertex labels. ``None`` means
        unlabeled (equivalent to all labels being ``None``).
    """

    __slots__ = ("n", "edges", "anti_edges", "labels", "_hash", "__dict__")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        anti_edges: Iterable[tuple[int, int]] = (),
        labels: Sequence | None = None,
    ) -> None:
        if n < 1:
            raise ValueError("pattern must have at least one vertex")
        edge_set = frozenset(normalize_edge(u, v) for u, v in edges)
        anti_set = frozenset(normalize_edge(u, v) for u, v in anti_edges)
        for u, v in edge_set | anti_set:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        overlap = edge_set & anti_set
        if overlap:
            raise ValueError(f"edges and anti-edges overlap: {sorted(overlap)}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
            if all(lab is None for lab in labels):
                labels = None
        self.n = n
        self.edges = edge_set
        self.anti_edges = anti_set
        self.labels = labels
        self._hash = hash((n, edge_set, anti_set, labels))

    # ------------------------------------------------------------------
    # Constructors for common shapes (Figure 1 of the paper).
    # ------------------------------------------------------------------

    @classmethod
    def clique(cls, n: int, labels: Sequence | None = None) -> "Pattern":
        """Complete graph on ``n`` vertices (edge- and vertex-induced at once)."""
        return cls(n, combinations(range(n), 2), labels=labels)

    @classmethod
    def cycle(cls, n: int, labels: Sequence | None = None) -> "Pattern":
        """Simple cycle ``0-1-...-(n-1)-0``."""
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)], labels=labels)

    @classmethod
    def star(cls, n: int, labels: Sequence | None = None) -> "Pattern":
        """Star with center ``0`` and ``n - 1`` leaves."""
        if n < 2:
            raise ValueError("a star needs at least 2 vertices")
        return cls(n, [(0, i) for i in range(1, n)], labels=labels)

    @classmethod
    def path(cls, n: int, labels: Sequence | None = None) -> "Pattern":
        """Simple path ``0-1-...-(n-1)``."""
        if n < 2:
            raise ValueError("a path needs at least 2 vertices")
        return cls(n, [(i, i + 1) for i in range(n - 1)], labels=labels)

    # ------------------------------------------------------------------
    # Structure queries.
    # ------------------------------------------------------------------

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Regular-edge neighbor sets, indexed by vertex."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def anti_adjacency(self) -> tuple[frozenset[int], ...]:
        """Anti-edge neighbor sets, indexed by vertex."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.anti_edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def anti_neighbors(self, v: int) -> frozenset[int]:
        return self.anti_adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def label(self, v: int):
        return None if self.labels is None else self.labels[v]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    def has_anti_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.anti_edges

    @cached_property
    def non_edges(self) -> frozenset[tuple[int, int]]:
        """Vertex pairs joined by neither an edge nor an anti-edge."""
        every = {normalize_edge(u, v) for u, v in combinations(range(self.n), 2)}
        return frozenset(every - self.edges - self.anti_edges)

    @cached_property
    def is_connected(self) -> bool:
        """Connectivity over regular edges only."""
        if self.n == 1:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for w in self.adjacency[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return len(seen) == self.n

    @property
    def is_clique(self) -> bool:
        return self.num_edges == self.n * (self.n - 1) // 2

    @property
    def is_edge_induced(self) -> bool:
        return not self.anti_edges

    @property
    def is_vertex_induced(self) -> bool:
        """True when every non-edge is an anti-edge (cliques qualify trivially)."""
        return not self.non_edges

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    # ------------------------------------------------------------------
    # Variants (Section 2): pᴱ and pⱽ share regular edges and differ only
    # in anti-edges.
    # ------------------------------------------------------------------

    def edge_induced(self) -> "Pattern":
        """The edge-induced variant pᴱ (anti-edges dropped)."""
        if self.is_edge_induced:
            return self
        return Pattern(self.n, self.edges, labels=self.labels)

    def vertex_induced(self) -> "Pattern":
        """The vertex-induced variant pⱽ (anti-edges on every non-edge)."""
        if self.is_vertex_induced:
            return self
        anti = [
            (u, v)
            for u, v in combinations(range(self.n), 2)
            if normalize_edge(u, v) not in self.edges
        ]
        return Pattern(self.n, self.edges, anti, labels=self.labels)

    # ------------------------------------------------------------------
    # Transformations.
    # ------------------------------------------------------------------

    def relabel(self, perm: Sequence[int]) -> "Pattern":
        """Rename vertices: vertex ``v`` becomes ``perm[v]``."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of the vertex ids")
        new_labels = None
        if self.labels is not None:
            new_labels = [None] * self.n
            for v in range(self.n):
                new_labels[perm[v]] = self.labels[v]
        return Pattern(
            self.n,
            [(perm[u], perm[v]) for u, v in self.edges],
            [(perm[u], perm[v]) for u, v in self.anti_edges],
            labels=new_labels,
        )

    def with_edge(self, u: int, v: int) -> "Pattern":
        """Superpattern obtained by turning one non-adjacent pair into an edge.

        Any anti-edge on the pair is removed; the variant character of the
        pattern is otherwise preserved.
        """
        e = normalize_edge(u, v)
        if e in self.edges:
            raise ValueError(f"edge {e} already present")
        return Pattern(
            self.n,
            self.edges | {e},
            self.anti_edges - {e},
            labels=self.labels,
        )

    def with_labels(self, labels: Sequence | None) -> "Pattern":
        twin = Pattern(self.n, self.edges, self.anti_edges, labels=labels)
        if not self.anti_edges:
            # Same edges: every labeling shares one bare pattern.
            twin.__dict__["_bare"] = self.bare
        return twin

    def unlabeled(self) -> "Pattern":
        return self if self.labels is None else self.with_labels(None)

    @property
    def bare(self) -> "Pattern":
        """The regular edges alone: no anti-edges, no labels.

        The key of the per-skeleton memos (:mod:`repro.core.canonical`):
        every labeling and both variants of one numbered shape share it.
        Built once per pattern (a pattern that is already bare is its
        own, without a self-reference).
        """
        if self.labels is None and not self.anti_edges:
            return self
        bare = self.__dict__.get("_bare")
        if bare is None:
            bare = self.__dict__["_bare"] = Pattern(self.n, self.edges)
        return bare

    # ------------------------------------------------------------------
    # Dunder plumbing.
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.anti_edges == other.anti_edges
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = [f"n={self.n}", f"edges={sorted(self.edges)}"]
        if self.anti_edges:
            parts.append(f"anti={sorted(self.anti_edges)}")
        if self.labels is not None:
            parts.append(f"labels={self.labels}")
        return f"Pattern({', '.join(parts)})"
