"""The data graph: the (large) graph that patterns are mined in.

Stored in **CSR (compressed sparse row) layout**: one flat ``indptr``
array (``int64``, length ``n + 1``) and one flat ``indices`` array
(``int32`` when vertex ids fit, else ``int64``, length ``2m``) holding
every vertex's sorted neighbor list back to back — the adjacency shape
Peregrine/GraphPi read directly in their set-operation kernels.
``neighbors(v)`` is a zero-copy read-only slice of ``indices``;
``has_edge`` is a hash-set probe of the packed edge key. Vertex
ids are dense ``0..n-1``; optional integer labels support labeled
mining (FSM). Undirected, simple (self-loops and duplicate edges are
dropped during construction and *counted*, see
``num_dropped_self_loops`` / ``num_duplicate_edges``).

A labeled graph can also hold its adjacency a second time, every row
ordered by (label, id) (:attr:`DataGraph.label_runs`), so a labeled
frontier level gathers only the neighbours that carry its label. It is
built lazily by the first labeled level that has a backward neighbour,
never for an unlabeled graph, and costs two more arrays of
``len(indices)`` entries: the sorted packed keys (``adjacency_keys``'
dtype) and the neighbour ids (the ``indices`` dtype). A row's run of
one label is a fixed slice of those arrays, so the run's bounds are
kept as columns of ``n`` flat positions, one per label a query touches
(:meth:`DataGraph.label_run_bounds`).

Batch membership ("is ``v`` adjacent to ``u``?" for a whole frontier)
reads one per-graph table of at most :data:`DENSE_ADJACENCY_MAX_BYTES`
(:attr:`DataGraph.adjacency_filter`): the exact ``n × n`` matrix while
it fits, else a hashed bit table over the packed edge keys whose "maybe"
answers alone are checked against the sorted :attr:`~DataGraph.adjacency_keys`.

Every graph can also hand out a copy of itself with ids in ascending
(degree, id) order (:attr:`DataGraph.degree_ordered`): on it a
symmetry-breaking bound ``v < u`` cuts a hub's row short, which is why
count and existence runs are matched on it (the one switch is in
:meth:`repro.morph.session.MorphingSession._run`; nothing else reads
it). It is built lazily, once per graph object, straight from the CSR
by permutation, and is ``self`` when the order is already the identity.
The copy is an ordinary graph: its fingerprint is its own content hash,
and its :attr:`~DataGraph.label_runs`, :attr:`~DataGraph.adjacency_keys`
and :attr:`~DataGraph.adjacency_filter` are built on first use, on
whichever graph a kernel reads. It costs one more ``indptr`` and
``indices``.

The flat layout is what the rest of the system builds on: the partition
layer shards via ``indptr`` prefix sums, the cost model reads degree
statistics straight off ``indptr``, and the parallel execution layer's
shard threads all read the one copy of the arrays
(:mod:`repro.engines.execution`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np


#: Byte cap of the per-graph membership table
#: (:attr:`DataGraph.adjacency_filter`): the dense boolean adjacency
#: matrix while its ``n²`` bytes fit (n <= 1024), else a hashed filter
#: of at most this many slots. Small enough to be noise in a process's
#: peak RSS.
DENSE_ADJACENCY_MAX_BYTES = 1 << 20

#: Least filter slots per directed edge. The slot count is the next
#: power of two, so 4-8 per edge: 12-22 % of the slots are set, and only
#: a missing edge that lands on one pays a binary search. On morphbench's
#: 6,000-vertex ``serve-cold`` graph (71,928 directed edges) 2¹⁸, 2¹⁹
#: and 2²⁰ slots ran its queries at the same speed.
_FILTER_SLOTS_PER_EDGE = 4

#: Fibonacci-hashing multipliers (odd, ≈ 2^w / φ) per packed-key width.
_HASH_MULTIPLIERS = {
    np.dtype(np.int32): np.uint32(0x9E3779B1),
    np.dtype(np.int64): np.uint64(0x9E3779B97F4A7C15),
}


#: Elements per slice when :attr:`DataGraph.label_runs` and
#: :attr:`DataGraph.degree_ordered` map between ranks and ids, so their
#: temporaries stay small (at most 64 KiB).
_BUILD_SLICE = 1 << 13


def _index_dtype(num_vertices: int) -> np.dtype:
    """Narrowest integer dtype that holds every vertex id."""
    return np.dtype(np.int32 if num_vertices <= np.iinfo(np.int32).max else np.int64)


def _key_dtype(num_vertices: int) -> np.dtype:
    """Narrowest integer dtype that holds every packed ``u * n + v`` key."""
    n = num_vertices
    return np.dtype(np.int32 if n * n <= np.iinfo(np.int32).max else np.int64)


class LabelRuns(NamedTuple):
    """A labeled graph's adjacency ordered by (label, id) per row.

    See :attr:`DataGraph.label_runs`: ``keys`` are the sorted packed
    ``u * n + σ(v)`` keys, ``neighbors`` the ``v`` at the same flat
    positions, ``offsets`` each label's first rank in label-major order.
    """

    keys: np.ndarray
    neighbors: np.ndarray
    offsets: dict[int, int]


class AdjacencyFilter(NamedTuple):
    """A graph's batch membership table (:attr:`DataGraph.adjacency_filter`).

    ``table[slot]`` is True for the slot of every directed edge's packed
    key ``u * n + v``. The slot is the key itself when ``shift`` is
    ``None`` (the exact dense matrix), else the top bits of the key
    times a Fibonacci multiplier, unsigned and wrapping: then a True
    answer only says "maybe", and False is exact.
    """

    table: np.ndarray
    shift: np.unsignedinteger | None

    @property
    def exact(self) -> bool:
        return self.shift is None

    def slots(self, keys: np.ndarray) -> np.ndarray:
        """The slot of every packed key (in :attr:`DataGraph.adjacency_keys`'
        dtype, contiguous)."""
        if self.shift is None:
            return keys
        slots = keys.view(self.shift.dtype) * _HASH_MULTIPLIERS[keys.dtype]
        slots >>= self.shift
        return slots


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
        (and marked read-only), which is how the degree-ordered copy and
        fast loaders build a graph. ``validate`` runs cheap shape
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
        dtype = _key_dtype(n)
        # Built in place: one full-length array, no temporaries.
        keys = np.repeat(np.arange(n, dtype=dtype), np.diff(self._indptr))
        keys *= n
        keys += self._indices
        keys.flags.writeable = False
        return keys

    @cached_property
    def label_runs(self) -> LabelRuns:
        """Every CSR row a second time, ordered by (label, id).

        With ``σ(v)`` a vertex's rank in label-major order (the
        :attr:`vertices_by_label` arrays concatenated in label order),
        ``keys`` holds the sorted packed ``u * n + σ(v)`` key of every
        directed edge and ``neighbors`` the matching ``v``. Row ``u``
        keeps its flat CSR positions, and label ``ℓ``'s neighbours of
        ``u`` are the contiguous key range ``[u * n + offsets[ℓ], u * n +
        offsets[ℓ] + |V_ℓ|)``, ascending by id — so a labeled frontier
        level gathers one run instead of the whole row, and a strict id
        bound ``b`` is the key ``u * n + offsets[ℓ] +
        searchsorted(V_ℓ, b)``. ``keys`` has :attr:`adjacency_keys`'
        dtype (``n²`` fits by the same rule); the two arrays are the only
        full-length storage, and the build allocates no other.
        Derived from ``(indptr, indices, labels)`` alone, so the
        fingerprint does not cover it and an attached graph rebuilds it
        on first use. Only labeled graphs build it.
        """
        if self.labels is None:
            raise ValueError("label runs need a labeled graph")
        n = self.num_vertices
        by_label = self.vertices_by_label
        dtype = self.adjacency_keys.dtype
        label_major = np.concatenate(list(by_label.values()))
        rank = np.empty(n, dtype=label_major.dtype)
        rank[label_major] = np.arange(n, dtype=label_major.dtype)
        sizes = (len(members) for members in by_label.values())
        offsets = dict(zip(by_label, accumulate(sizes, initial=0)))
        keys = np.repeat(np.arange(n, dtype=dtype), np.diff(self._indptr))
        keys *= n
        neighbors = rank[self._indices]  # σ(v) for now; v once sorted
        keys += neighbors
        keys.sort()
        # σ -> v in slices: a full-length temporary would add its size to
        # the peak, and freed it can stay resident in a malloc arena.
        for lo in range(0, len(keys), _BUILD_SLICE):
            hi = lo + _BUILD_SLICE
            neighbors[lo:hi] = label_major[keys[lo:hi] % n]
        keys.flags.writeable = False
        neighbors.flags.writeable = False
        return LabelRuns(keys, neighbors, offsets)

    def label_run_bounds(self, label: int) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)``: row ``u``'s run of ``label`` in
        :attr:`label_runs` is ``neighbors[starts[u] : ends[u]]``.

        A run is a fixed slice of a row, so both are columns of ``n``
        flat positions: the column of label-major rank ``r`` holds every
        row's first key at or past ``u * n + r``, one ``searchsorted`` of
        the row bases, built on first use and kept. ``starts`` is the
        label's own rank and ``ends`` the next label's (``indptr[1:]``
        after the last label), so a graph holds one column for each
        label its queries touch, plus one.
        """
        rank = self.label_runs.offsets[label]
        end = rank + len(self.vertices_by_label[label])
        return self._run_column(rank), self._run_column(end)

    @cached_property
    def _run_columns(self) -> dict[int, np.ndarray]:
        """:meth:`label_run_bounds`' columns built so far, by rank."""
        return {}

    def _run_column(self, rank: int) -> np.ndarray:
        column = self._run_columns.get(rank)
        if column is None:
            n = self.num_vertices
            if rank in (0, n):
                column = self._indptr[1:] if rank else self._indptr[:-1]
            else:
                keys = self.label_runs.keys
                bases = np.arange(n, dtype=keys.dtype)
                bases *= n
                bases += rank
                column = np.searchsorted(keys, bases)
                column.flags.writeable = False
            self._run_columns[rank] = column
        return column

    @cached_property
    def degree_ordered(self) -> "DataGraph":
        """This graph with ids handed out in ascending (degree, id) order.

        Vertex ``r`` of the copy is this graph's vertex ``order[r]``, with
        ``order = lexsort((ids, degrees))``; labels move with their
        vertices, and every row is sorted in the new ids. ``self`` when
        the order is already the identity, so the copy's own
        ``degree_ordered`` is the copy. Built from the CSR by permutation:
        the relabelled packed keys ``rank[u] * n + rank[v]`` of every
        directed edge, sorted in place, are the copy's rows back to back.
        Its fingerprint is its own content hash, and its lazies
        (:attr:`adjacency_keys`, :attr:`label_runs`,
        :attr:`adjacency_filter`) are built on first use, like any graph's.
        """
        degrees = self.degrees
        if np.all(degrees[1:] >= degrees[:-1]):
            return self
        n = self.num_vertices
        order = np.argsort(degrees, kind="stable")
        dtype = _key_dtype(n)
        rank = np.empty(n, dtype=dtype)
        rank[order] = np.arange(n, dtype=dtype)
        keys = np.repeat(rank, degrees)
        keys *= n
        # Relabel, then map sorted keys back to ids, in slices: neither
        # pass needs a full-length temporary.
        for lo in range(0, len(keys), _BUILD_SLICE):
            hi = lo + _BUILD_SLICE
            keys[lo:hi] += rank[self._indices[lo:hi]]
        keys.sort()
        indices = np.empty_like(self._indices)
        for lo in range(0, len(keys), _BUILD_SLICE):
            hi = lo + _BUILD_SLICE
            indices[lo:hi] = keys[lo:hi] % n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees[order], out=indptr[1:])
        return DataGraph.from_csr(
            n,
            indptr,
            indices,
            None if self.labels is None else self.labels[order],
            name=self.name,
            num_dropped_self_loops=self.num_dropped_self_loops,
            num_duplicate_edges=self.num_duplicate_edges,
            validate=False,
        )

    @cached_property
    def adjacency_filter(self) -> AdjacencyFilter:
        """The batch membership table, at most ``DENSE_ADJACENCY_MAX_BYTES``.

        While ``n²`` bytes fit the cap (n <= 1024) it is the dense
        boolean adjacency matrix, flattened and read at the packed key
        ``u * n + v``: exact, and small enough to stay cache-resident.
        Above the cap it is a bool table of ``2^b`` slots, the next power
        of two of four per directed edge (at most the cap), with each
        edge's slot set at the top ``b`` bits of its key times a
        Fibonacci multiplier (``uint32`` or ``uint64`` arithmetic, as
        wide as the keys): a probe whose slot is clear is not an edge,
        and only the others need :attr:`adjacency_keys`' binary search.
        Built in slices, like :attr:`label_runs`, so its temporaries
        stay small.
        """
        keys = self.adjacency_keys
        n = self.num_vertices
        if n * n <= DENSE_ADJACENCY_MAX_BYTES:
            table = np.zeros(n * n, dtype=bool)
            table[keys] = True
            table.flags.writeable = False
            return AdjacencyFilter(table, None)
        wanted = _FILTER_SLOTS_PER_EDGE * max(len(keys), 1)
        cap = DENSE_ADJACENCY_MAX_BYTES.bit_length() - 1
        bits = min((wanted - 1).bit_length(), cap)
        unsigned = _HASH_MULTIPLIERS[keys.dtype].dtype
        table = np.zeros(1 << bits, dtype=bool)
        filt = AdjacencyFilter(table, unsigned.type(8 * unsigned.itemsize - bits))
        for lo in range(0, len(keys), _BUILD_SLICE):
            table[filt.slots(keys[lo : lo + _BUILD_SLICE])] = True
        table.flags.writeable = False
        return filt

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
