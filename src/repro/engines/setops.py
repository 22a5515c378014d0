"""Instrumented sorted-set operations with size-adaptive kernels.

Matching engines spend most of their time intersecting and differencing
sorted adjacency arrays (Observation 2 / Figure 4); these wrappers are the
single place that work happens so the per-op counters and timings that
the paper's profiling figures report come for free.

Each operation dispatches on the input-size ratio:

* **merge path** — ``np.intersect1d(assume_unique=True)`` when the two
  arrays are comparable in length (linear merge over both inputs);
* **galloping path** — when ``len(big) / len(small) >= GALLOP_RATIO``
  the small array is probed into the big one with one vectorized binary
  search (``searchsorted``), ``O(small · log big)``, the classic win on
  skewed hub-versus-candidate intersections;
* **disjoint-range fast path** — two scalar compares detect
  non-overlapping value ranges (common under symmetry-breaking bounds)
  and skip the kernel entirely.

``difference`` and ``exclude`` always use the probe path: numpy's
``setdiff1d``/``isin`` build sort/lookup tables that cost 5–10× a
binary-search probe at adjacency-list sizes.

Every returned array is **read-only** (``flags.writeable = False``),
including aliases of the inputs — callers share buffers with the CSR
graph and with each other, so a writable return would be a latent
corruption hazard.

The seed's plain ``intersect1d``/``setdiff1d``/``isin`` kernels survive
as the test-side reference these are compared against
(:mod:`repro.testing.setops_reference`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

#: Size ratio beyond which intersection gallops instead of merging.
GALLOP_RATIO = 8


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only alias of ``arr`` (zero-copy; never flips caller flags)."""
    if not arr.flags.writeable:
        return arr
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass
class SetOpStats:
    """Counters for the set-operation portion of a matching run."""

    intersections: int = 0
    differences: int = 0
    elements_scanned: int = 0
    seconds: float = 0.0
    #: Ops that took the galloping searchsorted path (adaptive dispatch).
    galloped: int = 0
    #: Whole-frontier vectorized ops (:mod:`repro.engines.frontier`);
    #: one tick covers an entire batch of per-root operations.
    batched: int = 0

    @property
    def total_ops(self) -> int:
        return self.intersections + self.differences

    def merge(self, other: "SetOpStats") -> None:
        self.intersections += other.intersections
        self.differences += other.differences
        self.elements_scanned += other.elements_scanned
        self.seconds += other.seconds
        self.galloped += other.galloped
        self.batched += other.batched


def _gallop_intersect(small: np.ndarray, big: np.ndarray) -> np.ndarray:
    """Members of ``small`` present in ``big`` (both sorted unique)."""
    pos = np.searchsorted(big, small)
    pos[pos == len(big)] = 0  # safe: big[0] != small[i] there unless a hit
    return small[big[pos] == small]


def intersect(a: np.ndarray, b: np.ndarray, stats: SetOpStats) -> np.ndarray:
    """Sorted intersection ``a ∩ b`` (both inputs sorted and unique)."""
    start = time.perf_counter()
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        out = _EMPTY
    elif a[-1] < b[0] or b[-1] < a[0]:
        out = _EMPTY  # value ranges do not overlap
    elif len_a * GALLOP_RATIO <= len_b:
        out = _gallop_intersect(a, b)
        out.flags.writeable = False
        stats.galloped += 1
    elif len_b * GALLOP_RATIO <= len_a:
        out = _gallop_intersect(b, a)
        out.flags.writeable = False
        stats.galloped += 1
    else:
        out = np.intersect1d(a, b, assume_unique=True)
        out.flags.writeable = False
    stats.intersections += 1
    stats.elements_scanned += len_a + len_b
    stats.seconds += time.perf_counter() - start
    return out


def difference(a: np.ndarray, b: np.ndarray, stats: SetOpStats) -> np.ndarray:
    """Sorted difference ``a \\ b`` (both inputs sorted and unique)."""
    start = time.perf_counter()
    len_a, len_b = len(a), len(b)
    if len_a == 0:
        out = _EMPTY
    elif len_b == 0:
        out = _readonly(a)
    elif a[-1] < b[0] or b[-1] < a[0]:
        out = _readonly(a)  # nothing to remove: ranges disjoint
    else:
        # Probe a into b: one vectorized binary search beats setdiff1d's
        # table machinery at every adjacency-list size we see.
        pos = np.searchsorted(b, a)
        pos[pos == len_b] = 0
        out = a[b[pos] != a]
        out.flags.writeable = False
        stats.galloped += 1
    stats.differences += 1
    stats.elements_scanned += len_a + len_b
    stats.seconds += time.perf_counter() - start
    return out


def bound_below(arr: np.ndarray, strict_lower: int) -> np.ndarray:
    """Entries of a sorted array strictly greater than ``strict_lower``."""
    return _readonly(arr[np.searchsorted(arr, strict_lower, side="right"):])


def bound_above(arr: np.ndarray, strict_upper: int) -> np.ndarray:
    """Entries of a sorted array strictly less than ``strict_upper``."""
    return _readonly(arr[: np.searchsorted(arr, strict_upper, side="left")])


def exclude(arr: np.ndarray, values: list[int]) -> np.ndarray:
    """Remove a handful of specific values (injectivity filtering)."""
    if not values or len(arr) == 0:
        return _readonly(arr)
    # ``values`` is a few stack vertices: binary-search each into the
    # sorted array and delete the hits — no isin lookup table.
    vals = np.array(sorted(set(values)), dtype=np.int64)
    pos = np.searchsorted(arr, vals)
    inside = pos < len(arr)
    pos = pos[inside]
    hits = pos[arr[pos] == vals[inside]]
    if hits.size == 0:
        return _readonly(arr)
    out = np.delete(arr, hits)
    out.flags.writeable = False
    return out


_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


@dataclass
class BranchPredictor:
    """Deterministic 2-bit saturating branch predictor.

    Stands in for the hardware branch-miss counters of Figure 14c/d: each
    Filter-UDF edge-existence check is one branch; a miss is recorded when
    the 2-bit counter's prediction disagrees with the outcome.
    """

    counters: dict[int, int] = field(default_factory=dict)
    branches: int = 0
    misses: int = 0

    def record(self, site: int, taken: bool) -> None:
        state = self.counters.get(site, 2)  # weakly taken
        predicted_taken = state >= 2
        self.branches += 1
        if predicted_taken != taken:
            self.misses += 1
        if taken:
            state = min(state + 1, 3)
        else:
            state = max(state - 1, 0)
        self.counters[site] = state
