"""Named patterns and motif enumerations used throughout the paper.

Figure 1 names the common 3/4-vertex shapes (triangle, 4-star, tailed
triangle, 4-cycle, chordal 4-cycle, 4-clique). Figure 3 describes the motif
sets: all connected vertex-induced patterns of a given size (2 of size 3,
6 of size 4, 21 of size 5). Figure 11a lists the evaluation patterns
p1..p10 of 5–7 vertices.

The published figure for p1..p10 is graphical and its exact topologies are
not recoverable from the text, so this module defines representatives that
match every property the text states: 5–7 vertices, drawn partly from the
GraphPi/Fractal evaluation suites, with "some larger and denser patterns
to stress the systems" (Section 7), p8 being a dense 6-vertex pattern and
p9/p10 having 7 vertices (Section 7.4). This substitution is recorded in
DESIGN.md.

All constructors return fresh edge-induced skeletons; call
``.vertex_induced()`` for the anti-edge-completed variant (the paper's
``pV`` suffix).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from repro.core.canonical import canonical_form, pattern_id, shape_of
from repro.core.pattern import Pattern

# ---------------------------------------------------------------------------
# Figure 1: common pattern names.
# ---------------------------------------------------------------------------

TRIANGLE = Pattern.clique(3)
FOUR_STAR = Pattern.star(4)
TAILED_TRIANGLE = Pattern(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
FOUR_CYCLE = Pattern.cycle(4)
CHORDAL_FOUR_CYCLE = Pattern(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
FOUR_CLIQUE = Pattern.clique(4)
THREE_PATH = Pattern.path(3)
FOUR_PATH = Pattern.path(4)
FIVE_CLIQUE = Pattern.clique(5)
FIVE_CYCLE = Pattern.cycle(5)
FIVE_STAR = Pattern.star(5)

#: Short names used by the paper's figures (Figure 4 etc.).
NAMED_PATTERNS: dict[str, Pattern] = {
    "triangle": TRIANGLE,
    "3P": THREE_PATH,
    "4S": FOUR_STAR,
    "TT": TAILED_TRIANGLE,
    "C4": FOUR_CYCLE,
    "C4C": CHORDAL_FOUR_CYCLE,
    "4CL": FOUR_CLIQUE,
    "4P": FOUR_PATH,
    "5CL": FIVE_CLIQUE,
    "C5": FIVE_CYCLE,
    "5S": FIVE_STAR,
}

# ---------------------------------------------------------------------------
# Figure 11a: evaluation patterns p1..p10 (representatives; see module doc).
# ---------------------------------------------------------------------------

#: House: 4-cycle with a roof triangle (5 vertices, 6 edges).
P1 = Pattern(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)])
#: Pentagon (5-cycle; a staple of the GraphPi evaluation suite).
P2 = Pattern.cycle(5)
#: 4-clique with a pendant vertex (5 vertices, 7 edges).
P3 = Pattern(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
#: Two triangles sharing an edge, plus a bridge (hourglass-like, 5 vertices).
P4 = Pattern(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (2, 4)])
#: 5-clique minus one edge (5 vertices, 9 edges; dense).
P5 = Pattern(5, [e for e in combinations(range(5), 2) if e != (3, 4)])
#: Prism: two triangles joined by a matching (6 vertices, 9 edges).
P6 = Pattern(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
#: Octahedron-like: 6-cycle with long chords (6 vertices, 9 edges).
P7 = Pattern(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4), (2, 5)])
#: Dense 6-vertex pattern: 6-clique minus a perfect matching (9... 12 edges).
P8 = Pattern(
    6,
    [e for e in combinations(range(6), 2) if e not in ((0, 3), (1, 4), (2, 5))],
)
#: 7-vertex pattern (Section 7.4): hexagonal wheel — 6-cycle plus a hub.
P9 = Pattern(
    7,
    [(i, (i + 1) % 6) for i in range(6)] + [(6, i) for i in range(6)],
)
#: 7-vertex pattern: two 4-cliques sharing a single vertex.
P10 = Pattern(
    7,
    list(combinations(range(4), 2)) + list(combinations((3, 4, 5, 6), 2)),
)

EVALUATION_PATTERNS: dict[str, Pattern] = {
    "p1": P1,
    "p2": P2,
    "p3": P3,
    "p4": P4,
    "p5": P5,
    "p6": P6,
    "p7": P7,
    "p8": P8,
    "p9": P9,
    "p10": P10,
}

# ---------------------------------------------------------------------------
# Motif enumeration (Figure 3).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def all_connected_patterns(k: int) -> tuple[Pattern, ...]:
    """All connected unlabeled pattern topologies on ``k`` vertices.

    Enumerated by edge-subset search de-duplicated through canonical forms;
    sizes 3/4/5 yield the 2/6/21 motif topologies quoted in the paper.
    Returned edge-induced (no anti-edges), sorted by edge count so sparser
    shapes come first.
    """
    if k < 2:
        raise ValueError("motifs need at least 2 vertices")
    pairs = list(combinations(range(k), 2))
    seen: set[Pattern] = set()
    result: list[Pattern] = []
    # Grow from spanning trees upward: iterate all edge subsets of size >= k-1.
    for r in range(k - 1, len(pairs) + 1):
        for subset in combinations(pairs, r):
            p = Pattern(k, subset)
            if not p.is_connected:
                continue
            canon = canonical_form(p)
            if canon not in seen:
                seen.add(canon)
                result.append(canon)
    result.sort(key=lambda p: (p.num_edges, pattern_id(p)))
    return tuple(result)


def motif_patterns(k: int) -> tuple[Pattern, ...]:
    """The vertex-induced motif set of size ``k`` (the k-MC input patterns)."""
    return tuple(p.vertex_induced() for p in all_connected_patterns(k))


def pattern_name(p: Pattern) -> str:
    """Human-readable name for a known pattern, else a structural summary."""
    name = _shape_names(p.n).get(shape_of(p.bare).form)
    if name is not None:
        return name if p.is_edge_induced else name + "-V"
    kind = "V" if p.is_vertex_induced and not p.is_clique else "E"
    return f"<{p.n}v{p.num_edges}e:{kind}:{pattern_id(p) & 0xFFFF:04x}>"


@lru_cache(maxsize=None)
def _shape_names(n: int) -> dict[Pattern, str]:
    """Canonical form → the first name (Figure 1's, then Figure 11a's)
    whose ``n``-vertex pattern has it; built on first use per vertex
    count, so naming a small pattern searches no 7-vertex one."""
    names: dict[Pattern, str] = {}
    for name, known in {**NAMED_PATTERNS, **EVALUATION_PATTERNS}.items():
        if known.n == n:
            names.setdefault(canonical_form(known), name)
    return names
