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

from repro.core.canonical import canonical_form
from repro.core.pattern import MEMO_SIZE, Pattern, normalize_edge


def skeleton(pattern: Pattern) -> Pattern:
    """The canonical edge-induced skeleton of a pattern (labels kept)."""
    return canonical_form(pattern.edge_induced())


@lru_cache(maxsize=MEMO_SIZE)
def direct_superpatterns(skel: Pattern) -> tuple[Pattern, ...]:
    """Skeletons reachable by adding exactly one edge, deduplicated.

    Adding an edge between automorphic vertex pairs yields the same
    superpattern (e.g. every chord of a 4-cycle gives the chordal 4-cycle);
    canonicalization collapses those.
    """
    supers: dict[Pattern, None] = {}
    for u, v in combinations(range(skel.n), 2):
        if normalize_edge(u, v) in skel.edges:
            continue
        supers[canonical_form(skel.with_edge(u, v))] = None
    return tuple(supers)


@lru_cache(maxsize=MEMO_SIZE)
def superpattern_closure(skel: Pattern) -> tuple[Pattern, ...]:
    """All superpattern skeletons of ``skel`` on the same vertices.

    Includes ``skel`` itself and ends at the clique (with ``skel``'s
    labels). This is the closure the morphing equations quantify over
    (``q ⊃ₙ p`` in Eq. 1, plus ``p`` itself).
    """
    skel = canonical_form(skel.edge_induced())
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
