"""Subgraph isomorphism between patterns, automorphisms, symmetry breaking.

These are the combinatorial primitives of the morphing algebra:

* ``subgraph_isomorphisms(p, q)`` enumerates the injective, label- and
  edge-preserving maps from ``p`` into ``q`` — the set ``phi(p, q)`` of
  Eq. 1/Eq. 2. Per Section 2, isomorphism *between patterns* considers
  regular edges only; anti-edges never participate.
* ``automorphisms(p)`` is ``phi(p, p)`` restricted to bijections — the
  symmetry group of the pattern.
* ``occurrence_count(p, q)`` is the coefficient attached to a superpattern
  in the morphing equations (e.g. the "3" on the 4-clique in [SM-E2]): the
  number of *distinct* occurrences of ``p`` inside ``q``.
* ``occurrence_embeddings(p, q)`` picks one representative isomorphism per
  distinct occurrence; these drive match and MNI conversion (Section 6).
* ``symmetry_breaking_conditions(p)`` computes the partial order on pattern
  vertices that makes a matching engine emit each data subgraph exactly
  once (Grochow–Kellis style, as used by Peregrine/GraphZero/GraphPi).

The maps between two patterns are memoized — the same small patterns
recur constantly through S-DAG construction and result conversion. The
group and the conditions are memoized per unlabeled shape only; a
labeled pattern's are one pass over its shape's group.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.canonical import shape_of
from repro.core.pattern import MEMO_SIZE, Pattern, normalize_edge


@lru_cache(maxsize=MEMO_SIZE)
def subgraph_isomorphisms(p: Pattern, q: Pattern) -> tuple[tuple[int, ...], ...]:
    """All injective maps ``f: V(p) -> V(q)`` preserving edges and labels.

    Every edge of ``p`` must map onto an edge of ``q``; extra edges of
    ``q`` are allowed (this is subgraph isomorphism, not induced). Labels
    must match exactly. Anti-edges are ignored on both sides.

    Returns maps as tuples where ``f[v]`` is the image of pattern vertex
    ``v``. For ``p.n == q.n`` these are the spanning embeddings used by the
    morphing equations.
    """
    if p.n > q.n or p.num_edges > q.num_edges:
        return ()

    # Order p's vertices so each (after the first) touches a previous one
    # when possible; this keeps candidate sets small.
    order = _connected_order(p)
    results: list[tuple[int, ...]] = []
    mapping = [-1] * p.n
    used = [False] * q.n

    def extend(idx: int) -> None:
        if idx == p.n:
            results.append(tuple(mapping))
            return
        u = order[idx]
        u_label = p.label(u)
        mapped_neighbors = [w for w in p.neighbors(u) if mapping[w] >= 0]
        if mapped_neighbors:
            candidates = set(q.neighbors(mapping[mapped_neighbors[0]]))
            for w in mapped_neighbors[1:]:
                candidates &= q.neighbors(mapping[w])
        else:
            candidates = set(range(q.n))
        for c in candidates:
            if used[c]:
                continue
            if u_label is not None and q.label(c) != u_label:
                continue
            if p.degree(u) > q.degree(c):
                continue
            mapping[u] = c
            used[c] = True
            extend(idx + 1)
            mapping[u] = -1
            used[c] = False

    extend(0)
    return tuple(sorted(results))


def _connected_order(p: Pattern) -> list[int]:
    """A vertex order where each vertex neighbors an earlier one if possible."""
    order: list[int] = []
    placed = [False] * p.n
    while len(order) < p.n:
        candidates = [
            v
            for v in range(p.n)
            if not placed[v] and any(placed[w] for w in p.neighbors(v))
        ]
        if not candidates:
            candidates = [v for v in range(p.n) if not placed[v]]
            # Start a new component at its highest-degree vertex.
            v = max(candidates, key=p.degree)
        else:
            v = max(candidates, key=lambda x: sum(placed[w] for w in p.neighbors(x)))
        placed[v] = True
        order.append(v)
    return order


def automorphisms(p: Pattern) -> tuple[tuple[int, ...], ...]:
    """The automorphism group of ``p`` (edge- and label-preserving bijections).

    Anti-edges do not participate (as in :func:`subgraph_isomorphisms`);
    for a vertex-induced pattern this equals the group preserving edges
    and anti-edges simultaneously, because the anti-edges are exactly the
    complement of the edges. The group of the regular edges alone is
    found once per shape (:func:`repro.core.canonical.shape_of`); a
    labeling keeps its label-preserving subgroup.
    """
    group = shape_of(p.bare).automorphisms
    labels = p.labels
    if labels is None:
        return group
    return tuple(g for g in group if tuple(map(labels.__getitem__, g)) == labels)


@lru_cache(maxsize=MEMO_SIZE)
def occurrence_embeddings(p: Pattern, q: Pattern) -> tuple[tuple[int, ...], ...]:
    """One representative isomorphism per distinct occurrence of ``p`` in ``q``.

    Two isomorphisms describe the same occurrence when they select the same
    edge subset of ``q``; that happens exactly when they differ by an
    automorphism of ``p``. The morphing conversions replay each alternative
    match once per occurrence, so deduplicating here is what keeps counts
    exact.
    """
    seen: set[frozenset[tuple[int, int]]] = set()
    reps: list[tuple[int, ...]] = []
    for f in subgraph_isomorphisms(p, q):
        image = frozenset(normalize_edge(f[u], f[v]) for u, v in p.edges)
        key = image if p.labels is None else frozenset(
            {("edges", image), ("verts", frozenset((f[v], p.label(v)) for v in range(p.n)))}
        )
        if key not in seen:
            seen.add(key)
            reps.append(f)
    return tuple(reps)


def occurrence_count(p: Pattern, q: Pattern) -> int:
    """Number of distinct spanning occurrences of ``p`` inside ``q``.

    This is the coefficient of ``q`` in the morphing equation for ``p``
    (Figure 7): e.g. ``occurrence_count(four_cycle, four_clique) == 3``.
    """
    return len(occurrence_embeddings(p, q))


def symmetry_breaking_conditions(p: Pattern) -> tuple[tuple[int, int], ...]:
    """Partial-order conditions ``(u, v)`` meaning "match(u) < match(v)".

    Iteratively fixes one vertex of a non-trivial orbit and constrains it
    below the rest of its orbit, then recurses into the stabilizer — the
    standard symmetry-breaking construction [18]. An engine honoring these
    conditions enumerates each data subgraph exactly once.

    They depend only on the group: a labeling that keeps its shape's
    whole group shares the shape's memoized conditions, and one that
    keeps only the identity has none.
    """
    if p.labels is None:
        return _shape_conditions(p.bare)
    group = automorphisms(p)
    if len(group) == 1:
        return ()
    if len(group) == len(shape_of(p.bare).automorphisms):
        return _shape_conditions(p.bare)
    return _conditions(group, p.n)


@lru_cache(maxsize=MEMO_SIZE)
def _shape_conditions(bare: Pattern) -> tuple[tuple[int, int], ...]:
    return _conditions(automorphisms(bare), bare.n)


def _conditions(group, n: int) -> tuple[tuple[int, int], ...]:
    """Symmetry-breaking conditions of a permutation group on ``n`` vertices."""
    group = list(group)
    conditions: list[tuple[int, int]] = []
    while len(group) > 1:
        anchor = None
        for v in range(n):
            orbit = {g[v] for g in group}
            if len(orbit) > 1:
                anchor = v
                break
        assert anchor is not None, "non-trivial group must move some vertex"
        orbit = {g[anchor] for g in group}
        for other in sorted(orbit):
            if other != anchor:
                conditions.append((anchor, other))
        group = [g for g in group if g[anchor] == anchor]
    return tuple(conditions)


def matches_of_pattern_in(p: Pattern, q: Pattern, require_induced: bool) -> int:
    """Occurrences of ``p`` in ``q`` treating ``q`` as a tiny data graph.

    Used by tests and the appendix walkthroughs; ``require_induced`` asks
    for vertex-induced occurrences (no extra ``q`` edges among the image).
    """
    count = 0
    for f in occurrence_embeddings(p, q):
        if not require_induced:
            count += 1
            continue
        image_edges = {normalize_edge(f[u], f[v]) for u, v in p.edges}
        image_vertices = sorted(f)
        extra = any(
            normalize_edge(a, b) in q.edges and normalize_edge(a, b) not in image_edges
            for i, a in enumerate(image_vertices)
            for b in image_vertices[i + 1 :]
        )
        if not extra:
            count += 1
    return count


@lru_cache(maxsize=MEMO_SIZE)
def vertex_orbits(p: Pattern) -> tuple[frozenset[int], ...]:
    """Partition of the pattern's vertices into automorphism orbits.

    The paper's MNI table has "a column for each group of symmetric
    vertices" (Section 2) — those groups are exactly these orbits: after
    the automorphism closure, MNI columns within one orbit are equal, so
    one column per orbit suffices. Orbits are returned sorted by their
    smallest member.
    """
    group = automorphisms(p)
    seen: set[int] = set()
    orbits: list[frozenset[int]] = []
    for v in range(p.n):
        if v in seen:
            continue
        orbit = frozenset(g[v] for g in group)
        seen.update(orbit)
        orbits.append(orbit)
    return tuple(sorted(orbits, key=min))
