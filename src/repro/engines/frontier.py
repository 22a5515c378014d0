"""Batched frontier matching: whole-batch numpy kernels over CSR slices.

The per-root kernel (:func:`repro.engines.base.run_plan`) expands one
root vertex at a time through a Python DFS loop — morphbench's
``mc4-count`` put 99.8% of an op in that loop. This module is the
**default** match kernel (``RunOptions.batch_roots=None``; ``0`` selects
the per-root reference kernel): a *frontier* formulation in which
thousands of root candidates expand level-by-level at once, every
constraint applied as one vectorized numpy operation over the whole
batch.

Data layout (see docs/architecture.md, "Batched frontier matching"):

* the **frontier matrix** ``emb`` — an array of shape ``(R, k)`` in the
  graph's index dtype (``int32`` unless the graph has over 2³¹
  vertices): R partial embeddings, column ``i`` holding the data vertex
  matched at plan level ``i``;
* **per-row CSR slicing** — expanding level ``k`` gathers each row's
  candidate neighbors directly out of the graph's flat ``indices``
  array (``np.repeat`` of row starts + a cumulative-sum offset trick),
  producing a ``rows``/``cand`` pair: candidate values and the frontier
  row each came from;
* **mask propagation** — symmetry-breaking bounds are folded directly
  into the gather (a packed-key ``searchsorted`` computes each row's
  bound cut-points before any candidate is materialized, the batch
  analogue of the per-root ``bound_above``/``bound_below`` slicing),
  and so is a labeled level's label: on a labeled graph an anchored
  level gathers only the anchor's run of that label from
  :attr:`~repro.graph.datagraph.DataGraph.label_runs` (each CSR row
  stored a second time in (label, id) order), so candidates of other
  labels are never materialized. The remaining constraints
  (injectivity as comparisons against the partial-embedding columns,
  then backward intersections and anti-edge differences as packed-key
  membership probes) each filter the surviving ``(row, cand)`` pairs,
  cheapest first, compacting between passes so every probe runs over
  an already-shrunk frontier.

**The element budget.** Transient memory is a constant, not a function
of the graph: before a level gathers anything, every frontier row's
cut-point width is already known, so the frontier is split where the
cumulative width crosses :data:`FRONTIER_ELEMENT_BUDGET` (a row wider
than the whole budget is itself cut into budget-sized pieces) and the
segments descend depth-first, in order. No gather, mask or probe ever
spans more than the budget, so a run holds at most ``depth`` segments'
worth of temporaries whatever the graph's size or skew. The budget is
deliberately small (``1 << 12`` elements — a 32 KiB index array): a
segment's arrays then stay cache-resident from the gather through the
last probe, so wide segments buy nothing (4-motif count on a 900-vertex
power-law graph, CPU seconds: 0.35 / 0.33 / 0.32 / 0.32 at 2 k / 4 k /
8 k / 16 k elements), while every doubling from here adds about
0.3 MiB to the heap of *each* thread that matches — a daemon's workers
keep their malloc arenas — which is what holds peak RSS at the per-root
kernel's. ``should_stop`` is polled once per segment, so cancellation
and deadline latency are bounded by the budget as well.

The expansion preserves the per-root DFS enumeration order exactly:
CSR rows are sorted ascending, ``np.repeat`` keeps frontier rows in
order, masking is order-stable, and segments are contiguous row ranges
visited in order — so the final embeddings appear in the same
lexicographic order the recursive kernel emits, and batched results are
**byte-identical** to per-root results (the ``tests/test_frontier.py``
differential matrix pins this).

**Blocks out.** Matches leave the kernel as it holds them: every
last-level segment is handed to an ``on_block(rows)`` consumer as one
matrix (:func:`run_plan_batched`). ``explore``'s UDF loop and
block-native aggregations (a decomposed count, GraphPi's IEP included)
consume blocks; kernels that emit one match at a time feed the same
consumers through :class:`BlockBuffer`. :func:`level_counts` is the companion primitive:
one expansion reduced to per-row candidate *counts*, which is all an
inclusion–exclusion suffix needs (:mod:`repro.plan.iep`).

Set-operation accounting: each vectorized membership pass counts as one
intersection/difference in :class:`~repro.engines.setops.SetOpStats`
plus one tick of the ``batched`` counter, with ``elements_scanned``
charged per candidate — so Figure 4-style breakdowns stay meaningful
for batched runs and ``kernel_span()`` reports the batched-op deltas.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Iterator

import numpy as np

from repro.engines.base import (
    EngineStats,
    RootWindow,
    StopExploration,
    clip_to_window,
    close_run,
    level_candidates,
)
from repro.engines.plan import ExplorationPlan, PlanLevel
from repro.engines.setops import SetOpStats
from repro.graph.datagraph import DataGraph

__all__ = [
    "BlockBuffer",
    "DEFAULT_BATCH_ROOTS",
    "FRONTIER_ELEMENT_BUDGET",
    "gather_candidates",
    "level_counts",
    "level_cuts",
    "member_mask",
    "run_plan_batched",
]

#: Root-chunk size of the default kernel (``RunOptions.batch_roots=None``).
DEFAULT_BATCH_ROOTS = 2048

#: Candidates one gather/mask/probe pass may span (see the module
#: docstring): the frontier is split where the cumulative per-row
#: cut-point width crosses it. Tests patch it down to 1.
FRONTIER_ELEMENT_BUDGET = 1 << 12

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
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return _EMPTY, _EMPTY
    rows = np.repeat(np.arange(len(counts)), counts)
    # Output element k of row r reads values[k + starts[r] - (elements
    # before row r)]: one per-row shift, spread by ``rows``, plus a flat
    # arange — built in place so only three full-width arrays are live.
    shift = starts - ends
    shift += counts
    index = shift[rows]
    index += np.arange(total)
    return rows, values[index]


def _packed_keys(graph: DataGraph, owners: np.ndarray) -> np.ndarray:
    """``owners * n``: each owner's row offset into ``adjacency_keys``.

    Computed in the key array's own dtype, which is wide enough for
    ``n² - 1`` by construction — so the product cannot wrap, and adding
    a vertex id to it yields a probe ``searchsorted`` need not convert.
    """
    return np.multiply(owners, graph.num_vertices, dtype=graph.adjacency_keys.dtype)


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


def _label_run_cuts(
    graph: DataGraph,
    level: PlanLevel,
    emb: np.ndarray,
    lower: np.ndarray | None,
    upper: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(values, starts, ends)`` of a labeled anchored level's label runs.

    Each row's candidates are the anchor's neighbours that carry the
    level's label (:attr:`DataGraph.label_runs`), ids ascending; a strict
    bound becomes the label-local rank of the bounding id, added to the
    run's base key. Probes are packed in the key array's dtype, as in
    :func:`_packed_keys`, so ``searchsorted`` never converts the keys.
    """
    runs = graph.label_runs
    members = graph.vertices_by_label.get(level.label)
    if members is None:
        empty = np.zeros(len(emb), dtype=np.int64)
        return runs.neighbors, empty, empty
    dtype = runs.keys.dtype
    owners = emb[:, level.backward_neighbors[0]]
    base = np.multiply(owners, graph.num_vertices, dtype=dtype)
    base += runs.offsets[level.label]
    if lower is None:
        lo = base
    else:
        lo = base + np.searchsorted(members, lower, side="right").astype(dtype)
    if upper is None:
        hi = base + len(members)
    else:
        hi = base + np.searchsorted(members, upper, side="left").astype(dtype)
    starts = np.searchsorted(runs.keys, lo)
    ends = np.searchsorted(runs.keys, hi)
    return runs.neighbors, starts, ends


def level_cuts(
    graph: DataGraph,
    level: PlanLevel,
    emb: np.ndarray,
    stats: SetOpStats,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every frontier row's candidate slice, before anything is gathered.

    Returns ``(values, starts, counts)``: row ``i``'s candidates are
    ``values[starts[i] : starts[i] + counts[i]]``, ascending — the order
    the per-root DFS kernel would visit them in. With a backward
    neighbor ``values`` is the graph's flat CSR ``indices`` and the slice
    is the adjacency row of the vertex matched at that level — or, on a
    labeled level of a labeled graph, ``label_runs.neighbors`` and the
    slice is only that row's run of the level's label, so no candidate of
    another label is ever gathered. Without a backward neighbor (a
    *tiled* level) every row fans out over the shared sorted base (the
    label's vertex set, or all vertices).

    The level's strict symmetry-breaking bounds are folded into the
    cut-points: because the packed key array shares the CSR layout (row
    ``u``'s keys occupy the same flat positions as its ``indices``
    slice), one ``searchsorted`` of ``owner * n + bound`` yields every
    row's cut at once — the bounds apply *before* any candidate is
    materialized, which is what keeps star-shaped patterns from
    gathering the full hub row for every frontier entry, and what lets
    the element budget split the frontier by widths it already knows.
    """
    start = time.perf_counter()
    lower, upper = _level_bounds(level, emb)
    if level.backward_neighbors and level.label is not None and graph.is_labeled:
        values, starts, ends = _label_run_cuts(graph, level, emb, lower, upper)
    elif level.backward_neighbors:
        values = graph.indices
        owners = emb[:, level.backward_neighbors[0]]
        indptr = graph.indptr
        starts = indptr[owners]
        ends = indptr[owners + 1]
        if (lower is not None or upper is not None) and len(owners):
            keys = graph.adjacency_keys
            packed = _packed_keys(graph, owners)
            if lower is not None:
                starts = np.searchsorted(keys, packed + lower, side="right")
            if upper is not None:
                ends = np.searchsorted(keys, packed + upper, side="left")
    else:
        if level.label is not None and graph.is_labeled:
            values = graph.vertices_by_label.get(level.label, _EMPTY)
        else:
            values = graph.all_vertices
        n_rows = emb.shape[0]
        if lower is not None:
            starts = np.searchsorted(values, lower, side="right")
        else:
            starts = np.zeros(n_rows, dtype=np.int64)
        if upper is not None:
            ends = np.searchsorted(values, upper, side="left")
        else:
            ends = np.full(n_rows, len(values), dtype=np.int64)
    counts = np.maximum(ends - starts, 0)
    stats.batched += 1
    stats.seconds += time.perf_counter() - start
    return values, starts, counts


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
        probes = _packed_keys(graph, owners)
        probes += cand
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


def count_only_level(level: PlanLevel) -> bool:
    """True when a level's candidate *count* equals its cut-point width.

    Holds when nothing filters candidates after the bound-folded (and
    label-run) cuts: at most one backward neighbor (the gather source),
    no anti-edge masks, and no injectivity masks beyond those the
    strict symmetry-breaking bounds already subsume (``cand > emb[j]``
    or ``cand < emb[j]`` implies ``cand != emb[j]``). For such a level
    the final count is just the sum of :func:`level_cuts`' widths — no
    candidate needs to be materialized at all (the batched analogue of
    the per-root kernel's ``len(cand)`` counting fast path, one level
    earlier).
    """
    if level.backward_anti:
        return False
    bounded = set(level.lower_bounds) | set(level.upper_bounds)
    if any(j not in bounded for j in level.non_adjacent):
        return False
    return len(level.backward_neighbors) <= 1


def _budget_segments(
    starts: np.ndarray, counts: np.ndarray, budget: int
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Split a frontier where its cumulative cut-point width crosses ``budget``.

    Yields ``(lo, hi, starts, counts)``: frontier rows ``lo:hi`` and the
    slice of each to gather now, at most ``budget`` elements in all.
    Pieces are contiguous and in row order, so consuming them in turn
    visits every ``(row, candidate)`` pair exactly once in the unsplit
    order. A single row wider than the budget is itself cut into
    budget-sized pieces (``hi == lo + 1``, consecutive sub-slices).
    """
    n = len(counts)
    ends = np.cumsum(counts)
    if n == 0 or ends[-1] <= budget:
        yield 0, n, starts, counts
        return
    lo = taken = 0
    while lo < n:
        hi = int(np.searchsorted(ends, taken + budget, side="right"))
        if hi > lo:
            yield lo, hi, starts[lo:hi], counts[lo:hi]
        else:
            hi = lo + 1
            first, width = int(starts[lo]), int(counts[lo])
            for offset in range(0, width, budget):
                yield (
                    lo,
                    hi,
                    np.array([first + offset]),
                    np.array([min(budget, width - offset)]),
                )
        taken = int(ends[hi - 1])
        lo = hi


def _filter_candidates(
    graph: DataGraph,
    level: PlanLevel,
    emb: np.ndarray,
    rows: np.ndarray,
    cand: np.ndarray,
    stats: SetOpStats,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a level's remaining constraints to gathered ``(rows, cand)``.

    The same constraint set as :func:`repro.engines.base.level_candidates`
    but in cost order rather than plan order (every constraint is a
    filter, so application order cannot change the surviving set, and
    compaction is order-stable, so it cannot change the sequence
    either): the bounds and the label are already in the cuts, the
    cheap columnwise injectivity comparisons go next, and the packed-key
    membership probes — the expensive passes — run last over an
    already-compacted frontier, shrinking it again after each probe.
    """
    mask = None
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


def gather_candidates(
    graph: DataGraph,
    level: PlanLevel,
    segment: np.ndarray,
    values: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    stats: SetOpStats,
) -> tuple[np.ndarray, np.ndarray]:
    """One segment's surviving ``(rows, cand)`` pairs.

    ``values``/``starts``/``counts`` are the segment's :func:`level_cuts`;
    ``rows`` indexes ``segment``. The caller keeps the gather within
    :data:`FRONTIER_ELEMENT_BUDGET`.
    """
    start = time.perf_counter()
    rows, cand = _ragged_take(values, starts, counts)
    stats.batched += 1
    stats.elements_scanned += len(cand)
    stats.seconds += time.perf_counter() - start
    return _filter_candidates(graph, level, segment, rows, cand, stats)


def level_counts(
    graph: DataGraph, level: PlanLevel, emb: np.ndarray, stats: SetOpStats
) -> np.ndarray:
    """How many candidates ``level`` has for every row of ``emb`` (int64).

    The count-only form of one frontier expansion: the same cuts,
    gather and filters as :func:`_descend_batched`, reduced per row with
    ``np.bincount`` instead of materialized — what an inclusion–exclusion
    suffix needs of a candidate set is its size. Nothing is gathered when
    the cut widths already are the counts, and a lone unbounded backward
    neighbor is its cut width (degree, or label-run length) minus the
    earlier columns adjacent to it that carry the level's label (one
    membership probe per column instead of a gather of the whole
    neighborhood). A count has no candidate order, so of
    several backward neighbors the one with the least total degree over
    the block is gathered and the others probed.
    """
    anchors = level.backward_neighbors
    if len(anchors) > 1:
        indptr = graph.indptr
        width = {j: (indptr[emb[:, j] + 1] - indptr[emb[:, j]]).sum() for j in anchors}
        lightest = min(anchors, key=width.get)
        rest = tuple(j for j in anchors if j != lightest)
        level = replace(level, backward_neighbors=(lightest, *rest))
    values, starts, counts = level_cuts(graph, level, emb, stats)
    counts = counts.astype(np.int64, copy=False)
    if count_only_level(level):
        return counts
    if len(anchors) == 1 and not (
        level.backward_anti or level.upper_bounds or level.lower_bounds
    ):
        owners = emb[:, anchors[0]]
        labels = graph.labels if level.label is not None else None
        for j in level.non_adjacent:
            earlier = member_mask(graph, owners, emb[:, j], stats)
            if labels is not None:
                earlier &= labels[emb[:, j]] == level.label
            counts = counts - earlier
        return counts
    out = np.zeros(len(emb), dtype=np.int64)
    for lo, hi, seg_starts, seg_counts in _budget_segments(
        starts, counts, FRONTIER_ELEMENT_BUDGET
    ):
        rows, _cand = gather_candidates(
            graph, level, emb[lo:hi], values, seg_starts, seg_counts, stats
        )
        out[lo:hi] += np.bincount(rows, minlength=hi - lo)
    return out


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
    on_block,
    perm: list[int],
    should_stop,
) -> int:
    """Expand a frontier through levels ``level_index..depth-1``.

    Depth-first over budget-sized segments: a segment's survivors
    descend to the next level before the next segment is gathered, so
    at most one segment per level is alive at a time. With ``on_block``
    every last-level segment's matches are handed over as one matrix in
    pattern-vertex column order (at most a budget's worth of rows).
    """
    if emb.shape[0] == 0:
        return 0
    setops = stats.setops
    level = plan.levels[level_index]
    last = level_index == plan.depth - 1
    values, starts, counts = level_cuts(graph, level, emb, setops)
    if last and on_block is None and count_only_level(level):
        # Counting fast path: the widths are the answer.
        return int(counts.sum())
    total = 0
    for lo, hi, seg_starts, seg_counts in _budget_segments(
        starts, counts, FRONTIER_ELEMENT_BUDGET
    ):
        if should_stop is not None and should_stop():
            raise StopExploration()
        segment = emb[lo:hi]
        rows, cand = gather_candidates(
            graph, level, segment, values, seg_starts, seg_counts, setops
        )
        if last and on_block is None:
            total += len(cand)
            continue
        if len(cand) == 0:
            continue
        full = np.empty((len(rows), level_index + 1), dtype=emb.dtype)
        full[:, :level_index] = segment[rows]
        full[:, level_index] = cand
        del rows, cand  # only ``full`` stays alive across the descent
        if not last:
            total += _descend_batched(
                graph, plan, full, level_index + 1, stats, on_block, perm, should_stop
            )
            continue
        stats.materialized += len(full)
        on_block(full[:, perm])
        total += len(full)
    return total


class BlockBuffer:
    """Turn a one-match-at-a-time kernel into a block producer.

    The per-root kernel and the engines with kernels of their own
    (BigJoin's BFS, AutoZero's compiled loops) emit ``on_match(match)``;
    block consumers take ``on_block(rows)``. Matches are buffered as
    they arrive and handed over, in order, one
    :data:`FRONTIER_ELEMENT_BUDGET`-row matrix at a time. The owner
    calls :meth:`flush` once the kernel returns.
    """

    __slots__ = ("_on_block", "_rows", "_capacity")

    def __init__(self, on_block: Callable[[np.ndarray], None]) -> None:
        self._on_block = on_block
        self._rows: list = []
        self._capacity = FRONTIER_ELEMENT_BUDGET

    def __call__(self, match) -> None:
        self._rows.append(match)
        if len(self._rows) >= self._capacity:
            self.flush()

    def flush(self) -> None:
        """Hand over what is buffered (nothing when empty)."""
        if self._rows:
            rows, self._rows = self._rows, []
            self._on_block(np.array(rows, dtype=np.int64))


def run_plan_batched(
    graph: DataGraph,
    plan: ExplorationPlan,
    stats: EngineStats,
    root_window: RootWindow | None = None,
    should_stop: Callable[[], bool] | None = None,
    batch_roots: int = DEFAULT_BATCH_ROOTS,
    on_batch: Callable[[float], None] | None = None,
    on_block: Callable[[np.ndarray], None] | None = None,
) -> int:
    """Batched drop-in for :func:`repro.engines.base.run_plan`.

    Roots are processed in chunks of ``batch_roots``; within a chunk the
    frontier expands level-by-level through vectorized numpy kernels, in
    segments of at most :data:`FRONTIER_ELEMENT_BUDGET` candidates.
    Results — counts, and the order and content of every match stream —
    are byte-identical to the per-root kernel.

    Matches leave the kernel in blocks: ``on_block(rows)`` receives each
    last-level segment as an ``(R, n)`` integer matrix, one match per
    row in pattern-vertex column order, rows in enumeration order and at
    most a budget's worth of them (a single-vertex pattern's blocks are
    its root chunks). Without it only the count is computed.

    ``should_stop`` is polled once per root chunk and once per segment
    (the per-root kernel polls per root; the grain only changes how much
    *extra* work a cancelled shard performs, never the results of
    completed shards). ``on_batch`` receives the completed root fraction
    after each chunk — the progress reporter's per-batch ETA
    recalibration hook.
    """
    if batch_roots < 1:
        raise ValueError(f"batch_roots must be >= 1, got {batch_roots!r}")
    depth = plan.depth
    perm = _pattern_order(plan)
    start = time.perf_counter()
    count: int | None = 0
    try:
        # Level 0 has no earlier level: its candidates are a label's
        # vertices (or all of them), clipped to the shard's window.
        roots = level_candidates(graph, plan.levels[0], [], stats)
        if root_window is not None:
            roots = clip_to_window(roots, root_window)
        n_roots = len(roots)
        for s in range(0, n_roots, batch_roots):
            if should_stop is not None and should_stop():
                raise StopExploration()
            chunk = roots[s : s + batch_roots]
            if depth > 1:
                count += _descend_batched(
                    graph, plan, chunk[:, None], 1, stats, on_block, perm, should_stop
                )
            else:
                if on_block is not None:
                    stats.materialized += len(chunk)
                    on_block(chunk[:, None])
                count += len(chunk)
            if on_batch is not None:
                on_batch(min(1.0, (s + len(chunk)) / max(1, n_roots)))
    except StopExploration:
        count = None
    return close_run(stats, start, count)
