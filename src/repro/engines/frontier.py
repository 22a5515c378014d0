"""Batched frontier matching: whole-batch numpy kernels over CSR slices.

The per-root kernel (:func:`repro.engines.base.run_plan`) expands one
root vertex at a time through a Python DFS loop — morphbench's
``mc4-count`` puts 99.8% of an op in that loop. This module replaces
it, opt-in, with a *frontier* formulation: thousands of root candidates
expand level-by-level at once, every constraint applied as one
vectorized numpy operation over the whole batch.

Data layout (see docs/architecture.md, "Batched frontier matching"):

* the **frontier matrix** ``emb`` — an ``int64`` array of shape
  ``(R, k)``: R partial embeddings, column ``i`` holding the data
  vertex matched at plan level ``i``;
* **per-row CSR slicing** — expanding level ``k`` gathers each row's
  candidate neighbors directly out of the graph's flat ``indices``
  array (``np.repeat`` of row starts + a cumulative-sum offset trick),
  producing a ``rows``/``cand`` pair: candidate values and the frontier
  row each came from;
* **mask propagation** — symmetry-breaking bounds are folded directly
  into the gather (a packed-key ``searchsorted`` computes each row's
  bound cut-points before any candidate is materialized, the batch
  analogue of the per-root ``bound_above``/``bound_below`` slicing);
  the remaining constraints (label tests and injectivity as
  comparisons against the partial-embedding columns, then backward
  intersections and anti-edge differences as packed-key membership
  probes) each filter the surviving ``(row, cand)`` pairs, cheapest
  first, compacting between passes so every probe runs over an
  already-shrunk frontier.

The expansion preserves the per-root DFS enumeration order exactly:
CSR rows are sorted ascending, ``np.repeat`` keeps frontier rows in
order, and masking is order-stable — so the final embeddings appear in
the same lexicographic order the recursive kernel emits, and batched
results are **byte-identical** to per-root results (the
``tests/test_frontier.py`` differential matrix pins this).

Set-operation accounting: each vectorized membership pass counts as one
intersection/difference in :class:`~repro.engines.setops.SetOpStats`
plus one tick of the ``batched`` counter, with ``elements_scanned``
charged per candidate — so Figure 4-style breakdowns stay meaningful
for batched runs and ``kernel_span()`` reports the batched-op deltas.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.engines.base import (
    EngineStats,
    RootWindow,
    StopExploration,
    clip_to_window,
)
from repro.engines.plan import ExplorationPlan, PlanLevel
from repro.engines.setops import SetOpStats
from repro.graph.datagraph import DataGraph

__all__ = [
    "DEFAULT_BATCH_ROOTS",
    "gather_frontier",
    "member_mask",
    "run_plan_batched",
]

#: Root-chunk size when ``batch_roots`` is requested without a number.
DEFAULT_BATCH_ROOTS = 2048

#: Frontier-row budget: a frontier wider than this is split into
#: segments (processed in order, so results are unaffected) to bound
#: the memory of one expansion. Overridable for tests.
MAX_FRONTIER_ROWS = 1 << 18

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def _ragged_take(
    values: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-row slices ``values[starts[i] : starts[i]+counts[i]]``.

    Returns ``(rows, cand)``: the row index each gathered element belongs
    to, and the element itself, rows in order and each row's slice kept
    contiguous — the layout every frontier kernel builds on.
    """
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # Within-row offsets: a flat arange minus each row's exclusive
    # cumulative start, then added to the repeated slice starts.
    exclusive = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(exclusive, counts)
    cand = values[np.repeat(starts, counts) + offsets].astype(np.int64, copy=False)
    return rows, cand


def gather_frontier(
    graph: DataGraph,
    owners: np.ndarray,
    stats: SetOpStats,
    *,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR neighbor slices for a column of frontier vertices.

    ``owners[i]`` is the data vertex whose adjacency row seeds row ``i``'s
    candidates. Returns ``(rows, cand)``: for every gathered candidate,
    the frontier row it belongs to and its vertex id, with candidates of
    one row contiguous and ascending (CSR rows are sorted) — the order
    the per-root DFS kernel would visit them in.

    ``lower`` / ``upper`` are optional per-row strict bounds: row ``i``
    only gathers neighbors ``> lower[i]`` / ``< upper[i]``. Because the
    packed key array shares the CSR layout (row ``u``'s keys occupy the
    same flat positions as its ``indices`` slice), one ``searchsorted``
    of ``owner * n + bound`` yields every row's cut-point at once — the
    bounds are applied *before* any candidate is materialized, which is
    what keeps star-shaped patterns from gathering the full hub row for
    every frontier entry.
    """
    start = time.perf_counter()
    indptr = graph.indptr
    starts = indptr[owners]
    ends = indptr[owners + 1]
    if (lower is not None or upper is not None) and len(owners):
        keys = graph.adjacency_keys
        scale = np.int64(graph.num_vertices)
        if lower is not None:
            starts = np.searchsorted(keys, owners * scale + lower, side="right")
        if upper is not None:
            ends = np.searchsorted(keys, owners * scale + upper, side="left")
    counts = np.maximum(ends - starts, 0)
    rows, cand = _ragged_take(graph.indices, starts, counts)
    stats.batched += 1
    stats.elements_scanned += len(cand)
    stats.seconds += time.perf_counter() - start
    return rows, cand


def member_mask(
    graph: DataGraph,
    owners: np.ndarray,
    cand: np.ndarray,
    stats: SetOpStats,
    *,
    difference: bool = False,
) -> np.ndarray:
    """Vectorized membership: is ``cand[i]`` adjacent to ``owners[i]``?

    On graphs small enough for a :attr:`DataGraph.dense_adjacency`
    matrix this is one 2-D fancy index. Otherwise: one
    ``np.searchsorted`` of the packed ``owner * n + cand`` probe keys
    into the graph's sorted directed-edge key array — the batch
    analogue of the per-row ``searchsorted`` probe the galloping set
    kernels use, with the per-row slicing folded into the key packing
    (a probe can only land inside its own owner's CSR row, because the
    keys of row ``u`` occupy ``[u*n, (u+1)*n)``). ``difference=True``
    only flips the stats attribution (a batched anti-edge difference);
    the returned mask is always *membership* — callers negate it
    themselves.
    """
    start = time.perf_counter()
    n = len(cand)
    dense = graph.dense_adjacency
    if n == 0:
        found = np.zeros(0, dtype=bool)
    elif dense is not None:
        found = dense[owners, cand]
    elif len(graph.adjacency_keys) == 0:
        found = np.zeros(n, dtype=bool)
    else:
        keys = graph.adjacency_keys
        probes = owners * np.int64(graph.num_vertices) + cand
        pos = np.searchsorted(keys, probes)
        np.minimum(pos, len(keys) - 1, out=pos)
        found = keys[pos] == probes
    if difference:
        stats.differences += 1
    else:
        stats.intersections += 1
    stats.batched += 1
    stats.elements_scanned += n
    stats.seconds += time.perf_counter() - start
    return found


def _level_bounds(
    level: PlanLevel, emb: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-row strict (lower, upper) symmetry-breaking bounds, or None."""
    upper = lower = None
    if level.upper_bounds:
        upper = emb[:, level.upper_bounds[0]]
        for j in level.upper_bounds[1:]:
            upper = np.minimum(upper, emb[:, j])
    if level.lower_bounds:
        lower = emb[:, level.lower_bounds[0]]
        for j in level.lower_bounds[1:]:
            lower = np.maximum(lower, emb[:, j])
    return lower, upper


def count_only_level(graph: DataGraph, level: PlanLevel) -> bool:
    """True when a level's candidate *count* equals its gather width.

    Holds when nothing filters candidates after the bound-folded gather:
    at most one backward neighbor (the gather source), no anti-edge
    masks, no label mask, and no injectivity masks beyond those the
    strict symmetry-breaking bounds already subsume (``cand > emb[j]``
    or ``cand < emb[j]`` implies ``cand != emb[j]``). For such a level
    the final count is just the sum of the per-row cut-point widths — no
    candidate needs to be materialized at all (the batched analogue of
    the per-root kernel's ``len(cand)`` counting fast path, one level
    earlier).
    """
    if level.backward_anti:
        return False
    bounded = set(level.lower_bounds) | set(level.upper_bounds)
    if any(j not in bounded for j in level.non_adjacent):
        return False
    if len(level.backward_neighbors) > 1:
        return False
    if level.label is not None and graph.is_labeled and level.backward_neighbors:
        return False
    return True


def level_count(
    graph: DataGraph,
    level: PlanLevel,
    emb: np.ndarray,
    stats: SetOpStats,
) -> int:
    """Count a :func:`count_only_level`'s candidates without gathering.

    Computes the same per-row cut-points the gather would use and sums
    their widths — the whole last level collapses to two
    ``searchsorted`` calls and one reduction.
    """
    start = time.perf_counter()
    lower, upper = _level_bounds(level, emb)
    if level.backward_neighbors:
        owners = emb[:, level.backward_neighbors[0]]
        indptr = graph.indptr
        starts = indptr[owners]
        ends = indptr[owners + 1]
        if (lower is not None or upper is not None) and len(owners):
            keys = graph.adjacency_keys
            scale = np.int64(graph.num_vertices)
            if lower is not None:
                starts = np.searchsorted(keys, owners * scale + lower, side="right")
            if upper is not None:
                ends = np.searchsorted(keys, owners * scale + upper, side="left")
    else:
        if level.label is not None and graph.is_labeled:
            base = graph.vertices_by_label.get(level.label, _EMPTY)
        else:
            base = graph.all_vertices
        n_rows = emb.shape[0]
        if lower is not None:
            starts = np.searchsorted(base, lower, side="right")
        else:
            starts = np.zeros(n_rows, dtype=np.int64)
        if upper is not None:
            ends = np.searchsorted(base, upper, side="left")
        else:
            ends = np.full(n_rows, len(base), dtype=np.int64)
    total = int(np.maximum(ends - starts, 0).sum())
    stats.batched += 1
    stats.seconds += time.perf_counter() - start
    return total


def level_batch(
    graph: DataGraph,
    level: PlanLevel,
    emb: np.ndarray,
    stats: SetOpStats,
) -> tuple[np.ndarray, np.ndarray]:
    """One level's batched candidate generation: compacted ``(rows, cand)``.

    Applies the same constraint set as
    :func:`repro.engines.base.level_candidates`, but over a whole
    frontier and in cost order rather than plan order (every constraint
    is a filter, so application order cannot change the surviving set,
    and compaction is order-stable, so it cannot change the sequence
    either): symmetry-breaking bounds fold into the gather itself, cheap
    columnwise comparisons (labels, injectivity) go next, and the
    packed-key membership probes — the expensive passes — run last over
    an already-compacted frontier, shrinking it again after each probe.
    """
    lower, upper = _level_bounds(level, emb)

    if level.backward_neighbors:
        j0 = level.backward_neighbors[0]
        rows, cand = gather_frontier(
            graph, emb[:, j0], stats, lower=lower, upper=upper
        )
    else:
        # No backward edge to gather from: every row fans out over the
        # label set / vertex range, per-row bound cut-points found by one
        # searchsorted into the shared sorted base.
        if level.label is not None and graph.is_labeled:
            base = graph.vertices_by_label.get(level.label, _EMPTY)
        else:
            base = graph.all_vertices
        n_rows = emb.shape[0]
        if lower is not None:
            starts = np.searchsorted(base, lower, side="right")
        else:
            starts = np.zeros(n_rows, dtype=np.int64)
        if upper is not None:
            ends = np.searchsorted(base, upper, side="left")
        else:
            ends = np.full(n_rows, len(base), dtype=np.int64)
        rows, cand = _ragged_take(base, starts, np.maximum(ends - starts, 0))
        stats.batched += 1
        stats.elements_scanned += len(cand)

    mask = None
    if level.label is not None and graph.is_labeled and level.backward_neighbors:
        labels = graph.labels
        assert labels is not None
        mask = labels[cand] == level.label
    for j in level.non_adjacent:
        cheap = cand != emb[rows, j]
        mask = cheap if mask is None else (mask & cheap)
    if mask is not None:
        rows = rows[mask]
        cand = cand[mask]

    for j in level.backward_neighbors[1:]:
        keep = member_mask(graph, emb[rows, j], cand, stats)
        rows = rows[keep]
        cand = cand[keep]
    for j in level.backward_anti:
        keep = ~member_mask(graph, emb[rows, j], cand, stats, difference=True)
        rows = rows[keep]
        cand = cand[keep]
    return rows, cand


def _segment_limit(graph: DataGraph, level: PlanLevel) -> int:
    """Frontier rows one expansion of ``level`` may take at once."""
    if level.backward_neighbors:
        return MAX_FRONTIER_ROWS
    # Tiled levels fan out |base| candidates per row: keep the product
    # under the row budget so disconnected plans cannot blow memory.
    if level.label is not None and graph.is_labeled:
        base_len = len(graph.vertices_by_label.get(level.label, _EMPTY))
    else:
        base_len = graph.num_vertices
    return max(1, MAX_FRONTIER_ROWS // max(1, base_len))


def _pattern_order(plan: ExplorationPlan) -> list[int]:
    """Column permutation turning level order into pattern-vertex order."""
    by_vertex = {lv.pattern_vertex: i for i, lv in enumerate(plan.levels)}
    return [by_vertex[u] for u in range(plan.pattern.n)]


def _descend_batched(
    graph: DataGraph,
    plan: ExplorationPlan,
    emb: np.ndarray,
    level_index: int,
    stats: EngineStats,
    on_match,
    perm: list[int],
) -> int:
    """Expand a frontier through levels ``level_index..depth-1``."""
    depth = plan.depth
    if emb.shape[0] == 0:
        return 0
    level = plan.levels[level_index]
    if (
        level_index == depth - 1
        and on_match is None
        and count_only_level(graph, level)
    ):
        # Counting fast path: no candidate materialization, so no
        # segment split is needed either.
        return level_count(graph, level, emb, stats.setops)
    limit = _segment_limit(graph, level)
    if emb.shape[0] > limit:
        total = 0
        for s in range(0, emb.shape[0], limit):
            total += _descend_batched(
                graph, plan, emb[s : s + limit], level_index, stats, on_match, perm
            )
        return total
    rows, cand = level_batch(graph, level, emb, stats.setops)
    if level_index == depth - 1:
        if on_match is None:
            return len(cand)
        full = np.empty((len(rows), depth), dtype=np.int64)
        full[:, : depth - 1] = emb[rows]
        full[:, depth - 1] = cand
        emitted = 0
        for match_row in full[:, perm].tolist():
            stats.materialized += 1
            on_match(tuple(match_row))
            emitted += 1
        return emitted
    next_emb = np.empty((len(rows), level_index + 1), dtype=np.int64)
    next_emb[:, :level_index] = emb[rows]
    next_emb[:, level_index] = cand
    return _descend_batched(
        graph, plan, next_emb, level_index + 1, stats, on_match, perm
    )


def _root_candidates(
    graph: DataGraph, plan: ExplorationPlan, root_window: RootWindow | None
) -> np.ndarray:
    """Level-0 candidates (no earlier levels exist, so only label/window)."""
    level = plan.levels[0]
    if level.label is not None and graph.is_labeled:
        roots = graph.vertices_by_label.get(level.label, _EMPTY)
    else:
        roots = graph.all_vertices
    if root_window is not None:
        roots = clip_to_window(roots, root_window)
    return roots


def run_plan_batched(
    graph: DataGraph,
    plan: ExplorationPlan,
    stats: EngineStats,
    on_match: Callable | None = None,
    root_window: RootWindow | None = None,
    should_stop: Callable[[], bool] | None = None,
    batch_roots: int = DEFAULT_BATCH_ROOTS,
    on_batch: Callable[[float], None] | None = None,
) -> int:
    """Batched drop-in for :func:`repro.engines.base.run_plan`.

    Roots are processed in chunks of ``batch_roots``; within a chunk the
    whole frontier expands level-by-level through vectorized numpy
    kernels. Results — counts, and the order and content of every
    ``on_match`` stream — are byte-identical to the per-root kernel.

    ``should_stop`` is polled once per root chunk (the per-root kernel
    polls per root; both grains only change how much *extra* work a
    cancelled shard performs, never the results of completed shards).
    ``on_batch`` receives the completed root fraction after each chunk —
    the progress reporter's per-batch ETA recalibration hook.
    """
    if batch_roots < 1:
        raise ValueError(f"batch_roots must be >= 1, got {batch_roots!r}")
    depth = plan.depth
    perm = _pattern_order(plan)
    start = time.perf_counter()
    stopped_early = False
    count = 0
    try:
        roots = _root_candidates(graph, plan, root_window)
        n_roots = len(roots)
        for s in range(0, n_roots, batch_roots):
            if should_stop is not None and should_stop():
                raise StopExploration()
            chunk = roots[s : s + batch_roots].astype(np.int64, copy=False)
            if depth == 1:
                if on_match is None:
                    count += len(chunk)
                else:
                    for v in chunk.tolist():
                        stats.materialized += 1
                        on_match(plan.match_to_pattern_order([v]))
                        count += 1
            else:
                count += _descend_batched(
                    graph, plan, chunk[:, None], 1, stats, on_match, perm
                )
            if on_batch is not None:
                on_batch(min(1.0, (s + len(chunk)) / max(1, n_roots)))
    except StopExploration:
        stopped_early = True
        count = 0  # partial counts were delivered through the callback
    stats.total_seconds += time.perf_counter() - start
    if not stopped_early:
        stats.matches += count
    stats.patterns_matched += 1
    return count
