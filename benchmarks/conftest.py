"""Shared benchmark fixtures: the synthetic dataset suite (Figure 11b).

Benchmarks compare baseline vs morphed runs; pytest-benchmark times the
morphed side while baseline timings, speedups and counter reductions are
recorded in ``benchmark.extra_info`` so the full figure row is visible in
the benchmark report (``--benchmark-verbose`` or the JSON export).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import pytest

from repro.engines.base import EngineStats
from repro.graph import datasets
from repro.graph.generators import assign_labels, power_law_cluster
from repro.graph.partition import partition_subgraphs


@pytest.fixture(scope="session")
def mico():
    return datasets.mico()


@pytest.fixture(scope="session")
def mag():
    return datasets.mag()


@pytest.fixture(scope="session")
def products():
    return datasets.products()


@pytest.fixture(scope="session")
def orkut():
    return datasets.orkut()


@pytest.fixture(scope="session")
def friendster():
    return datasets.friendster()


@pytest.fixture(scope="session")
def mico_small():
    """A reduced MiCo-like graph for the heaviest sweeps (5-MC, Fig 15e)."""
    g = power_law_cluster(170, 5, 0.5, seed=11, name="mico-small")
    return assign_labels(g, 29, skew=1.1, seed=12)


@pytest.fixture(scope="session")
def products_partition(products):
    """Densest LDG part of the Products stand-in (the §7.4 workload)."""
    parts = partition_subgraphs(products, 6, seed=1)
    return max(parts, key=lambda p: p.num_edges)


@pytest.fixture(scope="session")
def orkut_partition(orkut):
    parts = partition_subgraphs(orkut, 6, seed=1)
    return max(parts, key=lambda p: p.num_edges)


_BASELINE_CACHE: dict = {}

#: The figures reproduce claims about per-root DFS matching (what the
#: paper's systems run as compiled loops), so every session here pins
#: the per-root kernel; sessions default to the batched one, where
#: the multiples differ (EXPERIMENTS.md, "Kernel caveat").
PER_ROOT = {"batch_roots": 0}


def run_baseline_cached(engine_cls, graph, patterns, workload, aggregation=None):
    """Baseline (no-morph) run, cached per (engine, graph, workload).

    Several figure benches share a baseline (e.g. the speedup and the
    set-op-reduction views of the same workload); caching keeps the
    benchmark suite's wall time dominated by the measured morphed runs.
    """
    from repro.morph.session import MorphingSession

    key = (engine_cls.__name__, graph.name, workload)
    if key not in _BASELINE_CACHE:
        session = MorphingSession(
            engine_cls(), aggregation=aggregation, enabled=False, **PER_ROOT
        )
        _BASELINE_CACHE[key] = session.run(graph, list(patterns))
    return _BASELINE_CACHE[key]


def run_morphed(engine_cls, graph, patterns, aggregation=None):
    from repro.morph.session import MorphingSession

    session = MorphingSession(
        engine_cls(), aggregation=aggregation, enabled=True, **PER_ROOT
    )
    return session.run(graph, list(patterns))


@dataclass
class ComparisonRow:
    """One figure row: a workload measured with and without morphing."""

    workload: str
    graph: str
    baseline_seconds: float
    morphed_seconds: float
    baseline_stats: EngineStats
    morphed_stats: EngineStats
    results_equal: bool
    morphed_patterns: int

    @property
    def speedup(self) -> float:
        if self.morphed_seconds <= 0:
            return float("inf")
        return self.baseline_seconds / self.morphed_seconds

    @property
    def setop_reduction(self) -> float:
        """Figure 12c/d-style set-operation time reduction factor."""
        morphed = self.morphed_stats.setops.seconds
        if morphed <= 0:
            return float("inf")
        return self.baseline_stats.setops.seconds / morphed


def make_row(workload, graph, baseline, morphed):
    """Build a ComparisonRow from two runs, asserting equal results."""
    equal = set(baseline.results) == set(morphed.results) and all(
        baseline.results[k] == morphed.results[k] for k in baseline.results
    )
    assert equal, f"morphing changed results for {workload} on {graph.name}"
    return ComparisonRow(
        workload=workload,
        graph=graph.name,
        baseline_seconds=baseline.total_seconds,
        morphed_seconds=morphed.total_seconds,
        baseline_stats=baseline.stats,
        morphed_stats=morphed.stats,
        results_equal=equal,
        morphed_patterns=(
            sum(morphed.selection.morphed.values()) if morphed.selection else 0
        ),
    )


def record_comparison(benchmark, row) -> None:
    """Stash a ComparisonRow's figures into the benchmark report."""
    benchmark.extra_info["workload"] = row.workload
    benchmark.extra_info["graph"] = row.graph
    benchmark.extra_info["baseline_s"] = round(row.baseline_seconds, 4)
    benchmark.extra_info["morphed_s"] = round(row.morphed_seconds, 4)
    benchmark.extra_info["speedup"] = round(row.speedup, 3)
    benchmark.extra_info["setop_reduction"] = round(row.setop_reduction, 3)
    benchmark.extra_info["branch_misses_baseline"] = row.baseline_stats.branch_misses
    benchmark.extra_info["branch_misses_morphed"] = row.morphed_stats.branch_misses
    benchmark.extra_info["morphed_patterns"] = row.morphed_patterns


def breakdown_row(
    label: str, stats: EngineStats, total: float | None = None
) -> dict[str, Any]:
    """Figure 4-style percentage breakdown of one run's time.

    Percentages of ``total`` wall seconds per cost category, as a flat
    mapping for ``benchmark.extra_info``; ``other`` is the unattributed
    remainder, clamped at zero.
    """
    total = total if total is not None else stats.total_seconds
    known = stats.setops.seconds + stats.udf_seconds + stats.filter_seconds
    return {
        "label": label,
        "setops": 100.0 * stats.setops.seconds / total,
        "udf": 100.0 * stats.udf_seconds / total,
        "filter": 100.0 * stats.filter_seconds / total,
        "other": max(0.0, 100.0 * (total - known) / total),
        "total": total,
    }
