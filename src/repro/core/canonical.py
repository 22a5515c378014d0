"""Canonical labeling and 64-bit pattern IDs.

The paper canonicalizes patterns with the Bliss library and hashes the
canonicalized edges into a 64-bit pattern ID used for fast S-DAG lookups
(Section 5.1). This module is the from-scratch substitute: a color
refinement (1-WL) pass shrinks the permutation search space, then an
exhaustive search over color-preserving permutations picks the
lexicographically smallest encoding. Patterns in this problem domain have
at most ~8 vertices, so the exact search is cheap; results are memoized.

Canonical forms cover the full pattern: regular edges, anti-edges and
labels all participate, so ``pᴱ`` and ``pⱽ`` of the same shape receive
*different* IDs (they are different patterns), while any relabeling of the
same pattern receives the same ID.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import permutations

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


@lru_cache(maxsize=MEMO_SIZE)
def canonical_permutation(pattern: Pattern) -> tuple[int, ...]:
    """The vertex renaming that takes ``pattern`` to its canonical form."""
    best_perm: tuple[int, ...] | None = None
    best_encoding: tuple | None = None
    colors = _refine_colors(pattern)
    for perm in _color_class_permutations(colors):
        encoding = _encode(pattern, perm)
        if best_encoding is None or encoding < best_encoding:
            best_encoding = encoding
            best_perm = perm
    assert best_perm is not None
    return best_perm


@lru_cache(maxsize=MEMO_SIZE)
def canonical_form(pattern: Pattern) -> Pattern:
    """The canonical representative of ``pattern``'s isomorphism class."""
    return pattern.relabel(canonical_permutation(pattern))


@lru_cache(maxsize=MEMO_SIZE)
def pattern_id(pattern: Pattern) -> int:
    """A stable 64-bit ID that uniquely identifies the pattern structure.

    Isomorphic patterns (same edges/anti-edges/labels up to renaming) share
    an ID; distinct structures get distinct IDs with overwhelming
    probability (64-bit blake2b digest of the canonical encoding).
    """
    canon = canonical_form(pattern)
    encoding = _encode(canon, tuple(range(canon.n)))
    digest = hashlib.blake2b(repr(encoding).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def are_isomorphic(p: Pattern, q: Pattern) -> bool:
    """Full isomorphism check: edges, anti-edges and labels must all map."""
    if p.n != q.n or p.num_edges != q.num_edges:
        return False
    if len(p.anti_edges) != len(q.anti_edges):
        return False
    return canonical_form(p) == canonical_form(q)
