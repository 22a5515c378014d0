"""The data graph: the (large) graph that patterns are mined in.

Stored in **CSR (compressed sparse row) layout**: one flat ``indptr``
array (``int64``, length ``n + 1``) and one flat ``indices`` array
(``int32`` when vertex ids fit, else ``int64``, length ``2m``) holding
every vertex's sorted neighbor list back to back — the adjacency shape
Peregrine/GraphPi read directly in their set-operation kernels.
``neighbors(v)`` is a zero-copy read-only slice of ``indices``;
``has_edge`` is a binary search on the shorter endpoint's row. Vertex
ids are dense ``0..n-1``; optional integer labels support labeled
mining (FSM). Undirected, simple (self-loops and duplicate edges are
dropped during construction and *counted*, see
``num_dropped_self_loops`` / ``num_duplicate_edges``).

The flat layout is what the rest of the system builds on: the partition
layer shards via ``indptr`` prefix sums, the cost model reads degree
statistics straight off ``indptr``, and the parallel execution layer
ships the three arrays to worker processes through
``multiprocessing.shared_memory`` so workers attach zero-copy
(:mod:`repro.engines.execution`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np


#: Byte cap of the dense boolean adjacency matrix (``n²`` bytes, so
#: n <= 1024): small enough to stay cache-resident and to be noise in a
#: process's peak RSS. Bigger graphs answer batch membership through the
#: sorted ``adjacency_keys`` binary search, which measured as fast.
DENSE_ADJACENCY_MAX_BYTES = 1 << 20


def _index_dtype(num_vertices: int) -> np.dtype:
    """Narrowest integer dtype that holds every vertex id."""
    return np.dtype(np.int32 if num_vertices <= np.iinfo(np.int32).max else np.int64)


class DataGraph:
    """Immutable undirected data graph in flat CSR adjacency layout."""

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        labels: Sequence[int] | None = None,
        name: str = "graph",
    ) -> None:
        if num_vertices < 1:
            raise ValueError("graph needs at least one vertex")

        if isinstance(edges, np.ndarray):
            pairs = np.ascontiguousarray(edges, dtype=np.int64)
        else:
            pairs = np.array(list(edges), dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")

        # Clean the edge stream fully vectorized (no Python pair-sets):
        # drop self-loops, canonicalize to (min, max), dedupe via a packed
        # 1-D key — counting what was dropped instead of hiding it.
        loops = pairs[:, 0] == pairs[:, 1]
        num_self_loops = int(np.count_nonzero(loops))
        if num_self_loops:
            pairs = pairs[~loops]

        if pairs.size and (pairs.min() < 0 or pairs.max() >= num_vertices):
            bad = pairs[
                (pairs[:, 0] < 0)
                | (pairs[:, 0] >= num_vertices)
                | (pairs[:, 1] < 0)
                | (pairs[:, 1] >= num_vertices)
            ][0]
            raise ValueError(f"edge ({bad[0]}, {bad[1]}) out of range")
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        key = lo * np.int64(num_vertices) + hi  # n < 2^31.5 always holds here
        unique_keys = np.unique(key)
        num_duplicates = len(key) - len(unique_keys)
        lo = (unique_keys // num_vertices).astype(np.int64)
        hi = (unique_keys % num_vertices).astype(np.int64)

        dtype = _index_dtype(num_vertices)
        heads = np.concatenate([lo, hi])
        tails = np.concatenate([hi, lo]).astype(dtype)
        counts = np.bincount(heads, minlength=num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.lexsort((tails, heads))
        indices = tails[order]

        labels_arr = None
        if labels is not None:
            labels_arr = np.asarray(labels, dtype=np.int64)
            if labels_arr.shape != (num_vertices,):
                raise ValueError("labels must have one entry per vertex")

        self._init_from_csr(
            num_vertices,
            indptr,
            indices,
            labels_arr,
            name=name,
            num_dropped_self_loops=num_self_loops,
            num_duplicate_edges=num_duplicates,
        )

    def _init_from_csr(
        self,
        num_vertices: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: np.ndarray | None,
        name: str,
        num_dropped_self_loops: int = 0,
        num_duplicate_edges: int = 0,
    ) -> None:
        self.name = name
        self.num_vertices = num_vertices
        self.num_edges = len(indices) // 2
        self.num_dropped_self_loops = num_dropped_self_loops
        self.num_duplicate_edges = num_duplicate_edges
        # Read-only flat arrays: every neighbors() slice inherits the
        # flag, so kernels cannot scribble on shared adjacency.
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self._indptr = indptr
        self._indices = indices
        if labels is not None:
            labels.flags.writeable = False
        self.labels: np.ndarray | None = labels

    @classmethod
    def from_csr(
        cls,
        num_vertices: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: np.ndarray | None = None,
        name: str = "graph",
        num_dropped_self_loops: int = 0,
        num_duplicate_edges: int = 0,
        validate: bool = True,
    ) -> "DataGraph":
        """Wrap pre-built CSR arrays without copying or re-cleaning.

        This is the zero-copy entry point: the arrays are adopted as-is
        (and marked read-only), which is how shared-memory workers and
        fast loaders reconstruct a graph. ``validate`` runs cheap shape
        and monotonicity checks only — callers guarantee sorted rows.
        """
        if validate:
            if len(indptr) != num_vertices + 1:
                raise ValueError("indptr must have num_vertices + 1 entries")
            if int(indptr[0]) != 0 or int(indptr[-1]) != len(indices):
                raise ValueError("indptr must span [0, len(indices)]")
            if np.any(np.diff(indptr) < 0):
                raise ValueError("indptr must be non-decreasing")
        graph = cls.__new__(cls)
        graph._init_from_csr(
            num_vertices,
            indptr,
            indices,
            labels,
            name=name,
            num_dropped_self_loops=num_dropped_self_loops,
            num_duplicate_edges=num_duplicate_edges,
        )
        return graph

    # -- CSR access --------------------------------------------------------

    @property
    def indptr(self) -> np.ndarray:
        """Row-pointer array (``int64``, length ``num_vertices + 1``)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Flat sorted neighbor array (length ``2 * num_edges``)."""
        return self._indices

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The full storage: ``(indptr, indices, labels-or-None)``."""
        return self._indptr, self._indices, self.labels

    # -- basic queries ---------------------------------------------------

    @cached_property
    def fingerprint(self) -> str:
        """Stable content hash of the CSR arrays (and labels).

        Two graphs with identical structure and labels share a
        fingerprint even across processes — unlike ``id(graph)``, so
        it can key persistent caches (the planner's
        :class:`repro.PlanCache`). Computed once per graph.
        """
        import hashlib

        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.int64(self.num_vertices).tobytes())
        digest.update(self._indptr.tobytes())
        digest.update(self._indices.tobytes())
        if self.labels is not None:
            digest.update(b"L")
            digest.update(self.labels.tobytes())
        return digest.hexdigest()

    @cached_property
    def _rows(self) -> list[np.ndarray]:
        """Per-vertex zero-copy views into ``indices``, built once.

        ``np.split`` hands back n read-only views of the flat neighbor
        array (they inherit the writeable=False flag); caching them makes
        ``neighbors(v)`` a plain list index — the same cost as the old
        per-vertex adjacency — while every view still aliases the single
        CSR buffer.
        """
        return np.split(self._indices, self._indptr[1:-1])

    @cached_property
    def _degree_list(self) -> list[int]:
        """Plain-int degree per vertex, for O(1) ``degree()`` calls."""
        return np.diff(self._indptr).tolist()

    @cached_property
    def _edge_keys(self) -> set[int]:
        """Packed ``lo * n + hi`` keys for O(1) ``has_edge`` probes.

        Built lazily on the first ``has_edge`` call: bulk membership work
        should use the sorted CSR rows (searchsorted), but per-edge probe
        loops (oracles, validators, rewiring) need the hash-set constant
        factor.
        """
        edges = self._edge_array
        keys = edges[:, 0] * np.int64(self.num_vertices) + edges[:, 1]
        return set(keys.tolist())

    @cached_property
    def adjacency_keys(self) -> np.ndarray:
        """Sorted packed ``u * n + v`` keys of every *directed* edge.

        The vectorized-membership companion of ``_edge_keys``: one
        ``np.searchsorted`` against this array answers a whole batch of
        "is ``v`` adjacent to ``u``?" probes at once (the batched
        frontier kernels' workhorse). Sorted by construction — CSR rows
        ascend by head, and each row's tail list is sorted. 32-bit
        while the largest key (``n² - 1``) fits, which halves both the
        array and every probe batch built to search it; callers pack
        probes in ``adjacency_keys.dtype``.
        """
        n = self.num_vertices
        dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
        # Built in place: one full-length array, no temporaries.
        keys = np.repeat(np.arange(n, dtype=dtype), np.diff(self._indptr))
        keys *= n
        keys += self._indices
        keys.flags.writeable = False
        return keys

    @cached_property
    def dense_adjacency(self) -> np.ndarray | None:
        """Dense boolean adjacency matrix, or ``None`` above the byte cap.

        ``dense[u, v]`` answers adjacency with a single 2-D fancy index —
        the fastest batch membership primitive there is, but it costs
        ``n²`` bytes, so it only exists while that stays under
        ``DENSE_ADJACENCY_MAX_BYTES`` (1 MiB, i.e. n <= 1024): the matrix
        is then cache-resident and invisible in peak RSS. Larger graphs
        use the ``adjacency_keys`` binary search.
        """
        n = self.num_vertices
        if n * n > DENSE_ADJACENCY_MAX_BYTES:
            return None
        dense = np.zeros((n, n), dtype=bool)
        heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        dense[heads, self._indices] = True
        dense.flags.writeable = False
        return dense

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` — a zero-copy read-only CSR slice."""
        return self._rows[v]

    def degree(self, v: int) -> int:
        return self._degree_list[v]

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
            return False
        key = u * self.num_vertices + v if u < v else v * self.num_vertices + u
        return key in self._edge_keys

    @cached_property
    def _edge_array(self) -> np.ndarray:
        """``(num_edges, 2)`` array of ``u < v`` pairs in lexicographic order."""
        heads = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self._indptr)
        )
        tails = self._indices.astype(np.int64, copy=False)
        mask = tails > heads
        return np.column_stack([heads[mask], tails[mask]])

    def edge_array(self) -> np.ndarray:
        """Edges as a ``(num_edges, 2)`` int array with ``u < v`` rows."""
        return self._edge_array

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges as ``(u, v)`` with ``u < v`` (lexicographic order)."""
        return iter(map(tuple, self._edge_array.tolist()))

    def label(self, v: int) -> int | None:
        return None if self.labels is None else int(self.labels[v])

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-vertex degrees — one vectorized ``diff`` over ``indptr``."""
        return np.diff(self._indptr)

    @cached_property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.num_vertices else 0

    @cached_property
    def avg_degree(self) -> float:
        return 2.0 * self.num_edges / self.num_vertices if self.num_vertices else 0.0

    @cached_property
    def vertices_by_label(self) -> dict[int, np.ndarray]:
        """Sorted vertex-id array per label (empty dict when unlabeled)."""
        if self.labels is None:
            return {}
        dtype = self._indices.dtype
        order = np.argsort(self.labels, kind="stable")
        sorted_labels = self.labels[order]
        boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
        groups = np.split(order.astype(dtype), boundaries)
        out = {}
        for group in groups:
            group.sort()
            group.flags.writeable = False
            out[int(self.labels[group[0]])] = group
        return out

    @cached_property
    def num_labels(self) -> int:
        return len(self.vertices_by_label)

    @cached_property
    def all_vertices(self) -> np.ndarray:
        arr = np.arange(self.num_vertices, dtype=self._indices.dtype)
        arr.flags.writeable = False
        return arr

    def high_degree_threshold(self, percentile: float = 95.0) -> int:
        """Degree at the given percentile (cost-model enhancement, §5.2)."""
        if self.num_vertices == 0:
            return 0
        return int(np.percentile(self.degrees, percentile))

    # -- derived graphs ----------------------------------------------------

    def subgraph(self, vertices: Sequence[int], name: str | None = None) -> "DataGraph":
        """Induced subgraph on ``vertices``, re-indexed to ``0..k-1``."""
        keep = np.unique(np.asarray(list(vertices), dtype=np.int64))
        remap = np.full(self.num_vertices, -1, dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        edges = self._edge_array
        mask = (remap[edges[:, 0]] >= 0) & (remap[edges[:, 1]] >= 0)
        remapped = remap[edges[mask]]
        labels = self.labels[keep] if self.labels is not None else None
        return DataGraph(
            len(keep),
            remapped,
            labels=labels,
            name=name or f"{self.name}-sub",
        )

    def __repr__(self) -> str:
        lab = f", labels={self.num_labels}" if self.is_labeled else ""
        return (
            f"DataGraph({self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}{lab})"
        )
