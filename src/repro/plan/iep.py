"""Engine-agnostic inclusion–exclusion counting arithmetic.

The core identity: given candidate sets ``C_1 .. C_k``, the number of
ordered assignments of *pairwise-distinct* vertices, one from each set,
is

    D = Σ_{partitions P of {1..k}} (-1)^{k - |P|} ·
        Π_{block B ∈ P} (|B| - 1)! · |⋂_{u ∈ B} C_u|

implemented over set partitions (``k`` is at most a pattern's vertex
count, so Bell numbers stay tiny).

Its one consumer, the planner's ``Decompose`` rule (which GraphPi's
IEP counting also runs through), evaluates it over a whole *block* of
prefix matches at once (:func:`block_distinct_counts`): every candidate
set is a :class:`~repro.engines.plan.PlanLevel` over the block's
columns, a partition block's intersection is the merged level, its size
for every row is one :func:`~repro.engines.frontier.level_counts` pass,
and the Bell(k) signed products are vector arithmetic. The scalar
:func:`ordered_distinct_count` over materialized candidate sets is the
reference the property tests compare against.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterator, Sequence

import numpy as np

from repro.engines.plan import PlanLevel
from repro.engines.setops import intersect

__all__ = [
    "bell_number",
    "block_distinct_counts",
    "ordered_distinct_count",
    "set_partitions",
]

#: Largest magnitude block arithmetic may reach in int64 (headroom of 2
#: bits under the sign); past it the vectors hold Python ints.
_INT64_SAFE = 1 << 62


def set_partitions(items: list[int]) -> Iterator[list[list[int]]]:
    """All set partitions of ``items`` (Bell(k) of them)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def ordered_distinct_count(
    candidate_sets: list[np.ndarray], stats
) -> int:
    """Ordered assignments of distinct vertices, one from each set.

    ``stats`` is an :class:`~repro.engines.base.EngineStats` (or any
    object with a ``setops`` counter bundle); the block intersections
    are counted there like any other kernel set operation. Identical
    blocks share one cached intersection, so repeated candidate sets —
    the star-pattern case — cost a single set op.
    """
    k = len(candidate_sets)
    intersections: dict[frozenset[int], np.ndarray] = {}

    def block_set(block: frozenset[int]) -> np.ndarray:
        cached = intersections.get(block)
        if cached is not None:
            return cached
        members = sorted(block)
        current = candidate_sets[members[0]]
        for m in members[1:]:
            current = intersect(current, candidate_sets[m], stats.setops)
        intersections[block] = current
        return current

    total = 0
    for partition in set_partitions(list(range(k))):
        term = 1
        for block in partition:
            size = len(block_set(frozenset(block)))
            if size == 0:
                term = 0
                break
            term *= factorial(len(block) - 1) * size
        if term:
            sign = -1 if (k - len(partition)) % 2 else 1
            total += sign * term
    return total


@lru_cache(maxsize=None)
def _signed_partitions(k: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """``(coefficient, blocks)`` per partition: sign times Π (|B| − 1)!."""
    out = []
    for partition in set_partitions(list(range(k))):
        coefficient = -1 if (k - len(partition)) % 2 else 1
        for block in partition:
            coefficient *= factorial(len(block) - 1)
        out.append((coefficient, tuple(tuple(sorted(b)) for b in partition)))
    return tuple(out)


def bell_number(k: int) -> int:
    """How many set partitions — IEP terms — ``k`` candidate sets have."""
    return len(_signed_partitions(k))


def _merged(slots: Sequence[PlanLevel], width: int) -> PlanLevel | None:
    """The level whose candidates are ``⋂ slots`` (``None``: always empty).

    Constraints union; two different required labels cannot both hold.
    Every column that is not a backward neighbor is excluded explicitly
    (a vertex is never its own neighbor, so neighbors exclude themselves).
    """
    labels = {s.label for s in slots if s.label is not None}
    if len(labels) > 1:
        return None

    def union(field: str) -> tuple[int, ...]:
        return tuple(sorted({j for s in slots for j in getattr(s, field)}))

    neighbors = union("backward_neighbors")
    return PlanLevel(
        pattern_vertex=-1,
        backward_neighbors=neighbors,
        backward_anti=union("backward_anti"),
        upper_bounds=union("upper_bounds"),
        lower_bounds=union("lower_bounds"),
        non_adjacent=tuple(j for j in range(width) if j not in neighbors),
        label=labels.pop() if labels else None,
    )


def block_distinct_counts(
    graph,
    slots: Sequence[PlanLevel],
    rows: np.ndarray,
    stats,
    sizes: dict | None = None,
) -> np.ndarray:
    """:func:`ordered_distinct_count` for every row of a block at once.

    ``rows`` is an ``(R, w)`` matrix of prefix matches and each of the
    ``k`` ``slots`` a candidate set written as a level over its columns
    (``backward_neighbors`` are the anchors; ``non_adjacent`` is
    ignored — candidates always exclude every column's vertex). Returns
    the length-``R`` vector of ordered distinct assignments.

    ``sizes`` memoizes merged level → per-row size vector; pass one dict
    for all slot families evaluated on the same block so shared
    intersections cost one pass.

    Exact by construction: a term is a product of up to ``k`` set sizes,
    so when ``R · Σ|coefficient| · max_size ** k`` could leave int64
    (a 70 000-degree hub with a 4-vertex suffix does) the vectors carry
    Python ints (``dtype=object``) instead.
    """
    from repro.engines.frontier import level_counts

    k = len(slots)
    n_rows, width = rows.shape
    if sizes is None:
        sizes = {}
    partitions = _signed_partitions(k)
    max_size = (
        graph.max_degree
        if all(s.backward_neighbors for s in slots)
        else graph.num_vertices
    )
    bound = max(n_rows, 1) * sum(abs(c) for c, _ in partitions) * max(max_size, 1) ** k
    dtype = np.int64 if bound < _INT64_SAFE else object

    def block_size(block: tuple[int, ...]) -> np.ndarray | None:
        level = _merged([slots[u] for u in block], width)
        if level is None:
            return None
        got = sizes.get(level)
        if got is None:
            got = sizes[level] = level_counts(graph, level, rows, stats.setops)
        return got

    total = np.zeros(n_rows, dtype=dtype)
    for coefficient, blocks in partitions:
        factors = [block_size(block) for block in blocks]
        if any(size is None for size in factors):
            continue  # two labels in one block: the term is zero
        term = factors[0].astype(dtype, copy=False)
        for size in factors[1:]:
            term = term * size
        total += coefficient * term
    return total
