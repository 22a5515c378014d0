"""Adaptive set-op kernel tests: dispatch, equivalence, aliasing safety.

The adaptive kernels must be drop-in equivalent to the seed's numpy
set-routine kernels (``repro.testing.setops_reference``, the test-side
reference) for every input shape — the
engines' byte-identical-results guarantee rests on it. The aliasing
tests pin the rule that *every* array a kernel returns is read-only,
including the fast paths that hand back an alias of an input: those
aliases share storage with the CSR graph, so a writable return would let
one engine silently corrupt another's adjacency.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.atlas import motif_patterns
from repro.engines import base
from repro.engines.setops import (
    GALLOP_RATIO,
    SetOpStats,
    bound_above,
    bound_below,
    difference,
    exclude,
    intersect,
)
from repro.testing import setops_reference


def sorted_unique(max_value: int = 200, max_size: int = 40):
    return st.lists(
        st.integers(0, max_value), unique=True, max_size=max_size
    ).map(lambda xs: np.array(sorted(xs), dtype=np.int64))


class TestAdaptiveMatchesLegacy:
    @given(sorted_unique(), sorted_unique())
    @settings(max_examples=150, deadline=None)
    def test_intersect(self, a, b):
        adaptive = intersect(a, b, SetOpStats())
        legacy = setops_reference.intersect(a, b)
        assert np.array_equal(adaptive, legacy)

    @given(sorted_unique(), sorted_unique())
    @settings(max_examples=150, deadline=None)
    def test_difference(self, a, b):
        adaptive = difference(a, b, SetOpStats())
        legacy = setops_reference.difference(a, b)
        assert np.array_equal(adaptive, legacy)

    @given(sorted_unique(), st.lists(st.integers(0, 200), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_exclude(self, arr, values):
        adaptive = exclude(arr, values)
        legacy = setops_reference.exclude(arr, values)
        assert np.array_equal(adaptive, legacy)

    def test_skewed_sizes_hit_gallop_path(self):
        small = np.array([3, 500, 900], dtype=np.int64)
        big = np.arange(1000, dtype=np.int64)
        stats = SetOpStats()
        out = intersect(small, big, stats)
        assert out.tolist() == [3, 500, 900]
        assert stats.galloped == 1
        # Symmetric: big first, small second gallops too.
        stats2 = SetOpStats()
        assert intersect(big, small, stats2).tolist() == [3, 500, 900]
        assert stats2.galloped == 1

    def test_comparable_sizes_use_merge_path(self):
        a = np.arange(0, 40, 2, dtype=np.int64)
        b = np.arange(0, 40, 3, dtype=np.int64)
        stats = SetOpStats()
        out = intersect(a, b, stats)
        assert out.tolist() == sorted(set(a.tolist()) & set(b.tolist()))
        assert stats.galloped == 0

    def test_ratio_boundary(self):
        # Exactly GALLOP_RATIO times larger: the gallop path fires.
        small = np.array([5], dtype=np.int64)
        big = np.arange(GALLOP_RATIO, dtype=np.int64)
        stats = SetOpStats()
        intersect(small, big, stats)
        assert stats.galloped == 1
        # One short of the ratio: merge path.
        stats = SetOpStats()
        intersect(small, big[: GALLOP_RATIO - 1], stats)
        assert stats.galloped == 0

    def test_int32_int64_mix(self):
        a = np.array([1, 5, 9], dtype=np.int32)
        b = np.arange(100, dtype=np.int64)
        assert intersect(a, b, SetOpStats()).tolist() == [1, 5, 9]
        assert difference(a, b, SetOpStats()).tolist() == []

    def test_whole_session_results_identical(self, small_graph):
        """The kernel equivalence composes: a morphed 3-motif run whose
        per-root kernel is handed the reference set-ops returns exactly
        what the adaptive ones return."""
        patterns = list(motif_patterns(3))
        per_root = repro.RunOptions(batch_roots=0)
        adaptive = repro.run(small_graph, patterns, options=per_root)
        calls = []

        def reference(kernel):
            def run(a, b, _stats=None):
                calls.append(kernel.__name__)
                return kernel(a, b)

            return run

        with mock.patch.multiple(
            base,
            intersect=reference(setops_reference.intersect),
            difference=reference(setops_reference.difference),
            exclude=reference(setops_reference.exclude),
        ):
            legacy = repro.run(small_graph, patterns, options=per_root)
        assert adaptive.results == legacy.results
        assert "intersect" in calls  # the reference kernels really ran


class TestStatsAccounting:
    def test_counters_and_merge(self):
        stats = SetOpStats()
        a = np.array([1], dtype=np.int64)
        big = np.arange(64, dtype=np.int64)
        intersect(a, big, stats)
        difference(big, a, stats)
        assert stats.intersections == 1
        assert stats.differences == 1
        assert stats.total_ops == 2
        assert stats.elements_scanned == 2 * (len(a) + len(big))
        assert stats.galloped == 2
        merged = SetOpStats()
        merged.merge(stats)
        merged.merge(stats)
        assert merged.galloped == 4
        assert merged.total_ops == 4

    def test_disjoint_ranges_short_circuit(self):
        lo = np.array([1, 2, 3], dtype=np.int64)
        hi = np.array([10, 11, 12], dtype=np.int64)
        stats = SetOpStats()
        assert len(intersect(lo, hi, stats)) == 0
        assert difference(lo, hi, stats).tolist() == [1, 2, 3]
        assert stats.galloped == 0  # fast path, no kernel ran


class TestReturnedBuffersAreReadOnly:
    """Satellite regression: mutating any returned array must raise."""

    def _assert_frozen(self, out: np.ndarray) -> None:
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = -1

    def test_intersect_all_paths(self):
        paths = [
            (np.array([1, 2], dtype=np.int64), np.array([2, 3], dtype=np.int64)),
            (np.array([1], dtype=np.int64), np.arange(100, dtype=np.int64)),
            (np.arange(100, dtype=np.int64), np.array([1], dtype=np.int64)),
        ]
        for a, b in paths:
            out = intersect(a, b, SetOpStats())
            if len(out):
                self._assert_frozen(out)
            assert not out.flags.writeable

    def test_difference_alias_of_input(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        out = difference(a, empty, SetOpStats())
        assert np.shares_memory(out, a)
        self._assert_frozen(out)
        # The caller's own buffer stays writable — only the alias froze.
        assert a.flags.writeable
        a[0] = 7
        assert out[0] == 7  # same storage, by design

    def test_difference_disjoint_alias(self):
        a = np.array([1, 2], dtype=np.int64)
        b = np.array([50, 60], dtype=np.int64)
        out = difference(a, b, SetOpStats())
        assert np.shares_memory(out, a)
        self._assert_frozen(out)
        assert a.flags.writeable

    def test_difference_probe_path(self):
        a = np.array([1, 2, 3, 4], dtype=np.int64)
        b = np.array([2, 4], dtype=np.int64)
        out = difference(a, b, SetOpStats())
        assert out.tolist() == [1, 3]
        self._assert_frozen(out)

    def test_bound_below_and_above(self):
        arr = np.arange(10, dtype=np.int64)
        self._assert_frozen(bound_below(arr, 4))
        self._assert_frozen(bound_above(arr, 6))
        assert arr.flags.writeable

    def test_exclude_hit_and_miss(self):
        arr = np.array([1, 3, 5, 7], dtype=np.int64)
        hit = exclude(arr, [3, 7])
        assert hit.tolist() == [1, 5]
        self._assert_frozen(hit)
        miss = exclude(arr, [2, 4])
        assert np.shares_memory(miss, arr)
        self._assert_frozen(miss)
        assert arr.flags.writeable

    def test_empty_results_frozen(self):
        empty = np.empty(0, dtype=np.int64)
        out = intersect(empty, empty, SetOpStats())
        assert not out.flags.writeable

    def test_readonly_input_accepted(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        a.flags.writeable = False
        b = np.empty(0, dtype=np.int64)
        out = difference(a, b, SetOpStats())
        assert out is a  # already frozen: returned as-is, no extra view
