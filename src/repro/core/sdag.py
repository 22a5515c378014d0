"""The S-DAG: memoized superpattern/subpattern DAG (Section 5.1).

Each S-DAG node is a pattern *skeleton* (canonical edge-induced form; see
:mod:`repro.core.generation`); a directed edge runs from each pattern with
``k`` edges to its superpatterns with ``k + 1`` edges. Nodes memoize
per-variant cost estimates, which Algorithm 1 reads and re-weights during
alternative-set selection.

Nodes are keyed by 64-bit pattern IDs for fast lookup, exactly as the
paper describes; labeled patterns produce distinct nodes per labeling
(Figure 8, right).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.canonical import pattern_id
from repro.core.generation import direct_superpatterns, skeleton
from repro.core.pattern import Pattern

#: Variant tags: edge-induced / vertex-induced.
EDGE_INDUCED = "E"
VERTEX_INDUCED = "V"


@dataclass
class SDagNode:
    """One pattern skeleton plus its DAG links and cost annotations."""

    skel: Pattern
    parents: list[int] = field(default_factory=list)  # pattern IDs, +1 edge
    children: list[int] = field(default_factory=list)  # pattern IDs, -1 edge
    is_query: bool = False
    #: Query variant if this node came in as an input pattern.
    query_variant: str | None = None
    #: Estimated match cost per variant; filled by the cost model.
    cost: dict[str, float] = field(default_factory=dict)
    #: Working cost used by Algorithm 1 (min over variants, re-weighted).
    effective_cost: float = float("inf")
    #: Variant achieving ``effective_cost``.
    best_variant: str = EDGE_INDUCED

    @property
    def id(self) -> int:
        return pattern_id(self.skel)


class SDag:
    """Superpattern DAG over a set of query patterns.

    Construction inserts every query skeleton and recursively extends each
    one with edges up to the clique, memoizing nodes by pattern ID so
    overlapping superpattern sets across queries are shared (the second
    deduplication source described in Section 5.1).
    """

    def __init__(self) -> None:
        self._nodes: dict[int, SDagNode] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, query_patterns: Iterable[Pattern]) -> "SDag":
        dag = cls()
        for p in query_patterns:
            skel = skeleton(p)
            node = dag._ensure(skel)
            node.is_query = True
            node.query_variant = VERTEX_INDUCED if p.is_vertex_induced else EDGE_INDUCED
            dag._extend(skel)
        return dag

    def _ensure(self, skel: Pattern) -> SDagNode:
        pid = pattern_id(skel)
        node = self._nodes.get(pid)
        if node is None:
            node = SDagNode(skel=skel)
            self._nodes[pid] = node
        return node

    def _extend(self, skel: Pattern) -> None:
        """Recursively add all superpatterns of ``skel``, sharing nodes."""
        pid = pattern_id(skel)
        stack = [pid]
        while stack:
            current = self._nodes[stack.pop()]
            if current.parents:
                continue  # memoized: already extended from another query
            for sp in direct_superpatterns(current.skel):
                sp_node = self._ensure(sp)
                sp_id = sp_node.id
                if sp_id not in current.parents:
                    current.parents.append(sp_id)
                if current.id not in sp_node.children:
                    sp_node.children.append(current.id)
                stack.append(sp_id)

    # -- queries ---------------------------------------------------------

    def __contains__(self, pattern: Pattern) -> bool:
        return pattern_id(skeleton(pattern)) in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[SDagNode]:
        return iter(self._nodes.values())

    def node(self, pattern: Pattern) -> SDagNode:
        """Node for a pattern (looked up through its skeleton)."""
        return self._nodes[pattern_id(skeleton(pattern))]

    def node_by_id(self, pid: int) -> SDagNode:
        return self._nodes[pid]

    def parents(self, pattern: Pattern) -> list[SDagNode]:
        return [self._nodes[i] for i in self.node(pattern).parents]

    def children(self, pattern: Pattern) -> list[SDagNode]:
        return [self._nodes[i] for i in self.node(pattern).children]

    def closure(self, pattern: Pattern) -> list[SDagNode]:
        """All superpattern nodes of ``pattern`` including itself."""
        start = self.node(pattern)
        seen = {start.id}
        order = [start]
        stack = [start]
        while stack:
            cur = stack.pop()
            for pid in cur.parents:
                if pid not in seen:
                    seen.add(pid)
                    node = self._nodes[pid]
                    order.append(node)
                    stack.append(node)
        return order

    def by_edge_count_desc(self) -> list[SDagNode]:
        """Nodes ordered densest-first (the triangular-solve order)."""
        return sorted(self._nodes.values(), key=lambda n: -n.skel.num_edges)
