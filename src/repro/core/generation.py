"""Superpattern generation (Section 5.1).

Superpatterns of a pattern ``p`` on the same vertex count are obtained by
adding edges between disconnected vertices, recursively, up to the clique.
Naive extension generates duplicates (symmetric insertion points, shared
superpatterns across inputs); everything here deduplicates through the
canonical forms of :mod:`repro.core.canonical`.

All functions operate on *skeletons*: edge-induced patterns that carry the
structure and labels but no anti-edges. Variant (edge- vs vertex-induced)
is chosen later by the selection algorithm.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from repro.core.canonical import Shape, canonical_form, shape_of, specialise
from repro.core.pattern import MEMO_SIZE, Pattern, normalize_edge


def skeleton(pattern: Pattern) -> Pattern:
    """The canonical edge-induced skeleton of a pattern (labels kept)."""
    if pattern.is_edge_induced:
        return canonical_form(pattern)
    return specialise(shape_of(pattern.bare), pattern.labels)


@lru_cache(maxsize=MEMO_SIZE)
def _added_edge_shapes(bare: Pattern) -> tuple[Shape, ...]:
    """The shape of ``bare`` plus each of its non-edges, in pair order."""
    return tuple(
        shape_of(bare.with_edge(u, v))
        for u, v in combinations(range(bare.n), 2)
        if normalize_edge(u, v) not in bare.edges
    )


def direct_superpatterns(skel: Pattern) -> tuple[Pattern, ...]:
    """Skeletons reachable by adding exactly one edge, deduplicated.

    Adding an edge between automorphic vertex pairs yields the same
    superpattern (e.g. every chord of a 4-cycle gives the chordal 4-cycle);
    canonicalization collapses those. The shapes are found once per
    unlabeled skeleton; a labeled superpattern is one of them carrying
    ``skel``'s labels (adding an edge renumbers nothing).
    """
    return tuple(
        dict.fromkeys(
            specialise(shape, skel.labels) for shape in _added_edge_shapes(skel.bare)
        )
    )


@lru_cache(maxsize=MEMO_SIZE)
def superpattern_closure(skel: Pattern) -> tuple[Pattern, ...]:
    """All superpattern skeletons of ``skel`` on the same vertices.

    Includes ``skel`` itself and ends at the clique (with ``skel``'s
    labels). This is the closure the morphing equations quantify over
    (``q ⊃ₙ p`` in Eq. 1, plus ``p`` itself).
    """
    skel = skeleton(skel)
    seen: dict[Pattern, None] = {skel: None}
    frontier = [skel]
    while frontier:
        nxt = []
        for p in frontier:
            for sp in direct_superpatterns(p):
                if sp not in seen:
                    seen[sp] = None
                    nxt.append(sp)
        frontier = nxt
    return tuple(sorted(seen, key=lambda p: (p.num_edges, repr(p))))
