"""Graph partitioning (the §7.4 workload-shrinking step).

The paper partitions Products and Orkut with METIS and mines the large
7-vertex patterns *within* partitions, dropping cross-partition edges to
bound the workload. METIS is unavailable offline; this module provides a
streaming Linear Deterministic Greedy (LDG) partitioner — a standard
lightweight alternative that, like METIS, produces balanced parts with a
modest edge cut. Since §7.4 only needs "balanced parts, cut edges
dropped", the substitution preserves the experiment's semantics.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graph.datagraph import DataGraph


def budget_ranges(widths: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` row ranges whose widths sum to at most ``budget``.

    Ranges are in order and cover every row; a row wider than the budget
    is a range by itself. Consumers that must keep a row whole (its
    elements are aggregated together) bound their temporaries this way.
    """
    ends = np.cumsum(widths)
    lo, taken, n = 0, 0, len(widths)
    while lo < n:
        hi = max(int(np.searchsorted(ends, taken + budget, side="right")), lo + 1)
        yield lo, hi
        taken = int(ends[hi - 1])
        lo = hi


def ldg_partition(graph: DataGraph, num_parts: int, seed: int = 0) -> list[int]:
    """Assign each vertex to a part via Linear Deterministic Greedy.

    Vertices are streamed in a random order; each goes to the part holding
    most of its already-placed neighbors, weighted by a capacity penalty
    ``1 - size/capacity`` that keeps parts balanced.
    """
    if num_parts < 1:
        raise ValueError("need at least one part")
    if num_parts == 1:
        return [0] * graph.num_vertices
    rng = np.random.default_rng(seed)
    order = rng.permutation(graph.num_vertices)
    capacity = graph.num_vertices / num_parts * 1.1
    assignment = [-1] * graph.num_vertices
    sizes = [0] * num_parts
    for v in order:
        v = int(v)
        neighbor_counts = [0] * num_parts
        for w in graph.neighbors(v):
            part = assignment[int(w)]
            if part >= 0:
                neighbor_counts[part] += 1
        best_part, best_score = 0, -1.0
        for part in range(num_parts):
            penalty = max(0.0, 1.0 - sizes[part] / capacity)
            score = (neighbor_counts[part] + 1e-9) * penalty
            if score > best_score:
                best_part, best_score = part, score
        assignment[v] = best_part
        sizes[best_part] += 1
    return assignment


def partition_subgraphs(
    graph: DataGraph, num_parts: int, seed: int = 0
) -> list[DataGraph]:
    """Split a graph into part-induced subgraphs, dropping cut edges."""
    assignment = ldg_partition(graph, num_parts, seed=seed)
    parts: list[list[int]] = [[] for _ in range(num_parts)]
    for v, part in enumerate(assignment):
        parts[part].append(v)
    return [
        graph.subgraph(vs, name=f"{graph.name}-part{i}")
        for i, vs in enumerate(parts)
        if vs
    ]


def edge_cut(graph: DataGraph, assignment: list[int]) -> int:
    """Number of edges crossing between parts."""
    return sum(1 for u, v in graph.edges() if assignment[u] != assignment[v])


def shard_by_degree_prefix(
    graph: DataGraph, num_shards: int
) -> list[tuple[int, int]]:
    """Split the vertex-id range into contiguous, degree-balanced shards.

    Returns half-open ``(lo, hi)`` vertex-id windows that partition
    ``[0, num_vertices)``. Cut points are chosen on the prefix sum of
    ``degree + 1`` (the +1 keeps isolated vertices from collapsing a
    shard to zero weight), so each shard carries roughly the same
    top-level exploration mass — the shard-parallel execution layer's
    analogue of Peregrine/GraphPi's vertex-range task decomposition.

    The CSR ``indptr`` array *is* the degree prefix sum, so the weights
    come straight off the graph's row pointers — no per-vertex loop and
    no materialized degree array.

    Deterministic: the same graph and shard count always yield the same
    windows, which is what makes shard-order merges reproducible.
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    n = graph.num_vertices
    if num_shards == 1 or n == 1:
        return [(0, n)]
    if num_shards >= n:
        return [(v, v + 1) for v in range(n)]
    # prefix[v] = sum_{w <= v} (degree(w) + 1) = indptr[v + 1] + (v + 1).
    prefix = graph.indptr[1:] + np.arange(1, n + 1, dtype=np.int64)
    total = int(prefix[-1])
    targets = [total * k // num_shards for k in range(1, num_shards)]
    cuts = np.searchsorted(prefix, targets, side="left") + 1
    bounds = [0]
    for cut in cuts.tolist():
        cut = min(int(cut), n)
        if cut > bounds[-1]:
            bounds.append(cut)
    if bounds[-1] != n:
        bounds.append(n)
    return list(zip(bounds[:-1], bounds[1:]))
