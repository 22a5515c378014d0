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
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple

from repro.core.canonical import (
    Shape,
    canonical_form,
    label_ranks,
    labeled_form,
    least_arrangement,
    shape_of,
    specialise,
)
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


class _ClosureNode(NamedTuple):
    """One shape of a closure template (:func:`_closure_template`)."""

    #: The shape's canonical form (unlabeled, no anti-edges).
    form: Pattern
    #: Where the shape's members sort in a closure: edge count, then
    #: the edge list as ``repr`` shows it.
    order: tuple[int, str]
    #: Per non-edge of ``form``, in pair order: the template index of
    #: the shape that adding it reaches, and that shape's arrangers
    #: (:attr:`~repro.core.canonical.Shape.arrangers`) read in
    #: ``form``'s numbering.
    supers: tuple[tuple[int, tuple[Callable[[tuple], tuple], ...]], ...]


@lru_cache(maxsize=MEMO_SIZE)
def _closure_template(form: Pattern) -> tuple[_ClosureNode, ...]:
    """The superpattern closure of the canonical shape ``form``, once
    per shape: every shape reachable by adding edges (``form`` first),
    with the one-edge steps between them. A labeling's closure walks
    these steps, taking one label pass per step."""
    index = {form: 0}
    forms = [form]
    supers = []
    for node in forms:  # grows while it is walked
        steps = []
        for shape in _added_edge_shapes(node):
            j = index.setdefault(shape.form, len(forms))
            if j == len(forms):
                forms.append(shape.form)
            steps.append((j, shape.arrangers))
        supers.append(tuple(steps))
    return tuple(
        _ClosureNode(f, (f.num_edges, repr(sorted(f.edges))), steps)
        for f, steps in zip(forms, supers)
    )


@lru_cache(maxsize=MEMO_SIZE)
def superpattern_closure(skel: Pattern) -> tuple[Pattern, ...]:
    """All superpattern skeletons of ``skel`` on the same vertices.

    Includes ``skel`` itself and ends at the clique (with ``skel``'s
    labels). This is the closure the morphing equations quantify over
    (``q ⊃ₙ p`` in Eq. 1, plus ``p`` itself). Sorted by edge count, then
    ``repr``: :func:`closure_members`, gathered.
    """
    return tuple(closure_members(skel))


def closure_members(skel: Pattern) -> Iterator[Pattern]:
    """:func:`superpattern_closure`'s members in its order, found one
    edge count at a time: a caller that stops early builds no more.

    The shapes and the steps between them come from the shape's
    template (:func:`_closure_template`); a labeled closure walks the
    steps, arranging the labels canonically on each shape it reaches.
    Labelings collide where the shape's symmetry allows, so a labeled
    closure has at least as many members as its shape's.
    """
    skel = skeleton(skel)
    template = _closure_template(skel.bare)
    labels = skel.labels
    if labels is None:
        yield from (node.form for node in sorted(template, key=attrgetter("order")))
        return
    yield skel
    rank = dict(zip(labels, label_ranks(labels)))
    seen = {(0, labels)}
    level = [(0, labels)]
    while level:
        found: dict[tuple[int, tuple], None] = {}
        for i, arranged in level:
            ranks = tuple(map(rank.__getitem__, arranged))
            for j, arrangers in template[i].supers:
                arrange = arrangers[least_arrangement(arrangers, ranks)]
                member = (j, arrange(arranged))
                if member not in seen:
                    seen.add(member)
                    found[member] = None
        # Every step adds one edge, so ``found`` holds the next edge
        # count whole. A member's ``repr`` is its form's edges, then its
        # labels and the closing parenthesis.
        level = sorted(found, key=lambda m: (template[m[0]].order, repr(m[1]) + ")"))
        for j, arranged in level:
            yield labeled_form(template[j].form, arranged)
