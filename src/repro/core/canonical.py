"""Canonical labeling and 64-bit pattern IDs.

The paper canonicalizes patterns with the Bliss library and hashes the
canonicalized edges into a 64-bit pattern ID used for fast S-DAG lookups
(Section 5.1). This module is the from-scratch substitute: a color
refinement (1-WL) pass shrinks the permutation search space, then an
exhaustive search over color-preserving permutations picks the
lexicographically smallest encoding. Patterns in this problem domain have
at most ~8 vertices, so the exact search is cheap; results are memoized.

The search runs only on *unlabeled* patterns (:func:`shape_of`, one memo
entry per numbered shape), and also yields the shape's automorphism
group. A labeled pattern is its shape specialised by one pass over that
group: its canonical form is the shape's canonical form carrying the
orbit-least label vector. Distinct labelings of one shape therefore
share all of the search's work.

Canonical forms cover the full pattern: regular edges, anti-edges and
labels all participate, so ``pᴱ`` and ``pⱽ`` of the same shape receive
*different* IDs (they are different patterns), while any relabeling of the
same pattern receives the same ID.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import permutations
from operator import itemgetter
from typing import Callable, NamedTuple

from repro.core.pattern import MEMO_SIZE, Pattern


def _refine_colors(pattern: Pattern) -> list[int]:
    """Iterative 1-WL color refinement; returns a stable color per vertex.

    Initial colors combine the vertex label, degree and anti-degree; each
    round appends the sorted multiset of (edge-kind, neighbor-color) pairs.
    Colors are isomorphism-invariant, so canonical search only needs to
    permute vertices within a color class.
    """
    n = pattern.n
    signatures: list[object] = [
        (repr(pattern.label(v)), pattern.degree(v), len(pattern.anti_neighbors(v)))
        for v in range(n)
    ]
    colors = _dense_ranks(signatures)
    for _ in range(n):
        signatures = [
            (
                colors[v],
                tuple(sorted(colors[w] for w in pattern.neighbors(v))),
                tuple(sorted(colors[w] for w in pattern.anti_neighbors(v))),
            )
            for v in range(n)
        ]
        new_colors = _dense_ranks(signatures)
        if new_colors == colors:
            break
        colors = new_colors
    return colors


def _dense_ranks(signatures: list[object]) -> list[int]:
    """Map arbitrary sortable signatures to dense integer ranks."""
    order = {sig: rank for rank, sig in enumerate(sorted(set(signatures), key=repr))}
    return [order[sig] for sig in signatures]


def _encode(pattern: Pattern, perm: tuple[int, ...]) -> tuple:
    """Encode a pattern under the vertex renaming ``v -> perm[v]``."""
    edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in pattern.edges))
    anti = tuple(
        sorted(tuple(sorted((perm[u], perm[v]))) for u, v in pattern.anti_edges)
    )
    if pattern.labels is None:
        labels = None
    else:
        relabeled = [None] * pattern.n
        for v in range(pattern.n):
            relabeled[perm[v]] = repr(pattern.labels[v])
        labels = tuple(relabeled)
    return (pattern.n, edges, anti, labels)


def _color_class_permutations(colors: list[int]):
    """Yield all vertex renamings that sort vertices by color class.

    Vertices are assigned canonical positions class by class (classes in
    increasing color order); within a class every arrangement is tried.
    """
    n = len(colors)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    ordered_classes = [classes[c] for c in sorted(classes)]

    def rec(idx: int, base: int, perm: list[int]):
        if idx == len(ordered_classes):
            yield tuple(perm)
            return
        members = ordered_classes[idx]
        for arrangement in permutations(members):
            for offset, v in enumerate(arrangement):
                perm[v] = base + offset
            yield from rec(idx + 1, base + len(members), perm)

    yield from rec(0, 0, [0] * n)


class Shape(NamedTuple):
    """What canonical search learns about one unlabeled pattern, once.

    Labeled patterns are never searched: a labeling is specialised from
    its shape by one pass over :attr:`placements` (:func:`_label_pass`).
    """

    #: The renaming that takes the pattern to :attr:`form`.
    perm: tuple[int, ...]
    #: The canonical representative (unlabeled).
    form: Pattern
    #: Every renaming that takes the pattern to :attr:`form` (one per
    #: automorphism), inverted: ``placement[j]`` is the vertex put at
    #: canonical position ``j``.
    placements: tuple[tuple[int, ...], ...]
    #: The pattern's automorphisms (edges and anti-edges kept), sorted.
    automorphisms: tuple[tuple[int, ...], ...]
    #: Per placement, ``labels -> tuple(labels[v] for v in placement)``
    #: (an :func:`operator.itemgetter`): a label pass's inner loop.
    arrangers: tuple[Callable[[tuple], tuple], ...]
    #: The same per automorphism: a labeling keeps the automorphisms
    #: that arrange its labels to themselves.
    group_arrangers: tuple[Callable[[tuple], tuple], ...]


@lru_cache(maxsize=MEMO_SIZE)
def shape_of(pattern: Pattern) -> Shape:
    """Canonical search over an *unlabeled* pattern (the skeleton memo).

    Every color-preserving renaming reaching the least encoding differs
    from the first by an automorphism, so the search yields the
    automorphism group as a by-product.
    """
    assert pattern.labels is None, "shapes are unlabeled"
    best_encoding: tuple | None = None
    ties: list[tuple[int, ...]] = []
    for perm in _color_class_permutations(_refine_colors(pattern)):
        encoding = _encode(pattern, perm)
        if best_encoding is None or encoding < best_encoding:
            best_encoding, ties = encoding, [perm]
        elif encoding == best_encoding:
            ties.append(perm)
    best = ties[0]
    placements = tuple(_inverse(t) for t in ties)
    first = placements[0]
    group = tuple(sorted(tuple(first[i] for i in t) for t in ties))
    return Shape(
        perm=best,
        form=pattern.relabel(best),
        placements=placements,
        automorphisms=group,
        arrangers=tuple(map(_arranger, placements)),
        group_arrangers=tuple(map(_arranger, group)),
    )


def _arranger(placement: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """``labels -> tuple(labels[v] for v in placement)``."""
    if len(placement) == 1:
        (v,) = placement
        return lambda labels: (labels[v],)
    return itemgetter(*placement)


def _inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * len(perm)
    for v, image in enumerate(perm):
        inverse[image] = v
    return tuple(inverse)


def _label_pass(shape: Shape, labels: tuple) -> int:
    """The index of the placement that takes one labeling of ``shape``
    to its canonical form.

    Of the renamings onto the canonical form, the one that leaves the
    least label vector (compared by ``repr``, as the encoding compares
    labels) wins: two labelings are isomorphic exactly when they share a
    shape and this vector.
    """
    return least_arrangement(shape.arrangers, label_ranks(labels))


def label_ranks(labels: tuple) -> tuple[int, ...]:
    """Each label's rank among the distinct ``repr`` of ``labels``: a
    vector that orders arrangements as their ``repr`` lists would."""
    keys = [repr(label) for label in labels]
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return tuple(map(rank.__getitem__, keys))


def least_arrangement(
    arrangers: tuple[Callable[[tuple], tuple], ...], ranks: tuple[int, ...]
) -> int:
    """Index of the first of ``arrangers`` (a shape's) that leaves the
    least arrangement of ``ranks``."""
    if len(arrangers) == 1:
        return 0
    keys = [arrange(ranks) for arrange in arrangers]
    return keys.index(min(keys))


def canonical_permutation(pattern: Pattern) -> tuple[int, ...]:
    """The vertex renaming that takes ``pattern`` to its canonical form."""
    if pattern.labels is None:
        return shape_of(pattern).perm
    shape = shape_of(pattern.unlabeled())
    return _inverse(shape.placements[_label_pass(shape, pattern.labels)])


def canonical_form(pattern: Pattern) -> Pattern:
    """The canonical representative of ``pattern``'s isomorphism class.

    Unlabeled: the shape's canonical form. Labeled: that form carrying
    the orbit-least arrangement of the labels.
    """
    if pattern.labels is None:
        return shape_of(pattern).form
    if pattern.__dict__.get(_CANONICAL):
        return pattern
    return specialise(shape_of(pattern.unlabeled()), pattern.labels)


#: Set on every labeled form :func:`labeled_form` builds: a form knows it
#: is canonical, so re-canonicalizing it (an S-DAG node, a closure
#: member) costs no label pass.
_CANONICAL = "_canonical"


def specialise(shape: Shape, labels: tuple | None) -> Pattern:
    """The canonical form of ``shape``'s pattern carrying ``labels``."""
    if labels is None:
        return shape.form
    arrange = shape.arrangers[_label_pass(shape, labels)]
    return labeled_form(shape.form, arrange(labels))


def labeled_form(form: Pattern, labels: tuple) -> Pattern:
    """The canonical pattern ``form`` (a shape's form) carrying
    ``labels``, which are already its canonical arrangement."""
    labeled = Pattern._derived(form.n, form.edges, form.anti_edges, labels)
    labeled.__dict__.update({"_bare": form.bare, _CANONICAL: True})
    return labeled


@lru_cache(maxsize=MEMO_SIZE)
def pattern_id(pattern: Pattern) -> int:
    """A stable 64-bit ID that uniquely identifies the pattern structure.

    Isomorphic patterns (same edges/anti-edges/labels up to renaming) share
    an ID; distinct structures get distinct IDs with overwhelming
    probability (64-bit blake2b digest of the canonical encoding).
    """
    canon = canonical_form(pattern)
    labels = canon.labels
    if labels is not None:
        labels = tuple(map(repr, labels))
    # ``repr`` of the canonical encoding (:func:`_encode` under the
    # identity): its shape's part, then the labels'.
    text = f"{_encoding_prefix(canon.n, canon.edges, canon.anti_edges)}{labels!r})"
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@lru_cache(maxsize=MEMO_SIZE)
def _encoding_prefix(n: int, edges: frozenset, anti_edges: frozenset) -> str:
    """``repr`` of a canonical encoding up to its labels, once per
    canonical shape: ``"(n, edges, anti-edges, "``."""
    return f"({n!r}, {tuple(sorted(edges))!r}, {tuple(sorted(anti_edges))!r}, "


def are_isomorphic(p: Pattern, q: Pattern) -> bool:
    """Full isomorphism check: edges, anti-edges and labels must all map."""
    if p.n != q.n or p.num_edges != q.num_edges:
        return False
    if len(p.anti_edges) != len(q.anti_edges):
        return False
    return canonical_form(p) == canonical_form(q)
