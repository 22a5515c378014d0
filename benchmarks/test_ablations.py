"""Ablations of the design choices DESIGN.md calls out.

Each test switches one mechanism off (or sweeps it) and measures the
consequence, quantifying why the design is the way it is:

* selection margin (the §7.5 guard against near-break-even morphs);
* AutoZero schedule merging (shared loop prefixes);
* symmetry breaking (without it, every match is found |Aut| times);
* the cost model's heavy-tail corrections (size-biased degree +
  clustering closure) vs. a plain Erdős–Rényi abstraction;
* compiled vs. interpreted matching kernels.
"""

from __future__ import annotations

import time

import pytest

from repro.core.atlas import all_connected_patterns, motif_patterns
from repro.core.costmodel import CostModel, GraphModel
from repro.core.isomorphism import automorphisms
from repro.engines.autozero.engine import AutoZeroEngine
from repro.engines.base import EngineStats, run_plan
from repro.engines.peregrine.engine import PeregrineEngine
from repro.engines.plan import ExplorationPlan
from repro.morph.session import MorphingSession

from .conftest import PER_ROOT


def test_ablation_selection_margin(benchmark, mico):
    """Margin sweep on 4-MC: every setting must stay exact; the default
    must be at least as fast as both extremes (no morph / blind morph).

    ``RunOptions`` rejects ``margin <= 0``, so the never-morph leg uses
    the smallest positive margin: ``added < 1e-9 * saved`` never holds.
    """
    never = 1e-9
    queries = list(motif_patterns(4))
    baseline = MorphingSession(PeregrineEngine(), enabled=False, **PER_ROOT).run(
        mico, queries
    )

    def sweep():
        times = {}
        for margin in (never, 0.6, 1.0, 1e9):
            session = MorphingSession(
                PeregrineEngine(), enabled=True, margin=margin, **PER_ROOT
            )
            result = session.run(mico, queries)
            assert result.results == baseline.results
            times[margin] = result.total_seconds
        return times

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for margin, seconds in times.items():
        benchmark.extra_info[f"margin_{margin}"] = round(seconds, 3)
    benchmark.extra_info["baseline_s"] = round(baseline.total_seconds, 3)
    # margin 1e-9 = never morph: roughly the baseline (generous bound — the
    # sweep runs four full 4-MC sessions back to back, so cache state and
    # scheduling noise move single runs by tens of percent).
    assert times[never] <= baseline.total_seconds * 1.6
    # The default must beat never-morphing on this morph-friendly workload.
    assert times[0.6] < times[never]


def test_ablation_schedule_merging(benchmark, mico):
    """AutoZero with vs without merged schedules on the 4-pattern set."""
    patterns = [p for p in all_connected_patterns(4)]

    def run_unmerged():
        engine = AutoZeroEngine()
        start = time.perf_counter()
        counts = {p: engine.count(mico, p) for p in patterns}  # one by one
        return counts, time.perf_counter() - start, engine.stats

    merged_engine = AutoZeroEngine()
    start = time.perf_counter()
    merged_counts = merged_engine.count_set(mico, patterns)
    merged_seconds = time.perf_counter() - start

    unmerged_counts, unmerged_seconds, unmerged_stats = benchmark.pedantic(
        run_unmerged, rounds=1, iterations=1
    )
    assert merged_counts == unmerged_counts
    benchmark.extra_info["merged_s"] = round(merged_seconds, 3)
    benchmark.extra_info["unmerged_s"] = round(unmerged_seconds, 3)
    benchmark.extra_info["sharing_ratio"] = round(
        merged_engine.last_sharing_ratio, 3
    )
    # Merging must actually share loop levels and not do more set ops.
    assert merged_engine.last_sharing_ratio < 1.0
    assert (
        merged_engine.stats.setops.total_ops <= unmerged_stats.setops.total_ops
    )


@pytest.mark.parametrize("pattern_index", [0, 2, 4])
def test_ablation_symmetry_breaking(pattern_index, benchmark, mico):
    """Without partial orders every subgraph is found |Aut| times."""
    pattern = list(all_connected_patterns(4))[pattern_index]
    broken_plan = ExplorationPlan.build(pattern, symmetry_breaking=True)
    unbroken_plan = ExplorationPlan.build(pattern, symmetry_breaking=False)

    broken_stats = EngineStats()
    broken = run_plan(mico, broken_plan, broken_stats)

    def run_unbroken():
        stats = EngineStats()
        return run_plan(mico, unbroken_plan, stats), stats

    unbroken, unbroken_stats = benchmark.pedantic(run_unbroken, rounds=1, iterations=1)
    group = len(automorphisms(pattern))
    benchmark.extra_info["aut_group"] = group
    benchmark.extra_info["redundancy_removed"] = group
    assert unbroken == broken * group
    if group > 1:
        assert unbroken_stats.total_seconds > broken_stats.total_seconds * 0.9


def test_ablation_cost_model_corrections(benchmark, mico):
    """Heavy-tail corrections must not rank real match counts worse than
    the plain Erdős–Rényi abstraction."""
    patterns = list(all_connected_patterns(4))
    engine = PeregrineEngine()
    real = {p: engine.count(mico, p) for p in patterns}

    enhanced_model = GraphModel.from_graph(mico)
    plain_model = GraphModel(
        num_vertices=enhanced_model.num_vertices,
        edge_prob=enhanced_model.edge_prob,
        avg_degree=enhanced_model.avg_degree,
        biased_degree=enhanced_model.avg_degree,  # no size-bias correction
        closure_prob=enhanced_model.edge_prob,  # no clustering correction
        high_degree_threshold=enhanced_model.high_degree_threshold,
        label_fractions=enhanced_model.label_fractions,
    )

    def rank_quality(model) -> int:
        cm = CostModel(model)
        est = {p: cm.estimated_matches(p, "E") for p in patterns}
        by_est = sorted(patterns, key=lambda p: est[p])
        by_real = sorted(patterns, key=lambda p: real[p])
        return sum(1 for a, b in zip(by_est, by_real) if a == b)

    def run():
        return rank_quality(enhanced_model), rank_quality(plain_model)

    enhanced_score, plain_score = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["enhanced_rank_matches"] = enhanced_score
    benchmark.extra_info["plain_rank_matches"] = plain_score
    assert enhanced_score >= plain_score
    assert enhanced_score >= len(patterns) // 2


def test_ablation_compiled_kernels(benchmark, mico):
    """Compiled (AutoMine-style) kernels vs the interpreted kernel."""
    from repro.engines.autozero.codegen import run_compiled

    patterns = list(all_connected_patterns(4))
    plans = [ExplorationPlan.build(p) for p in patterns]

    interp_stats = EngineStats()
    start = time.perf_counter()
    interp_counts = [run_plan(mico, plan, interp_stats) for plan in plans]
    interp_seconds = time.perf_counter() - start

    def run():
        stats = EngineStats()
        start = time.perf_counter()
        counts = [run_compiled(mico, plan, stats) for plan in plans]
        return counts, time.perf_counter() - start

    compiled_counts, compiled_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert compiled_counts == interp_counts
    benchmark.extra_info["interpreted_s"] = round(interp_seconds, 3)
    benchmark.extra_info["compiled_s"] = round(compiled_seconds, 3)
    benchmark.extra_info["speedup"] = round(interp_seconds / compiled_seconds, 3)
    # Compilation removes interpretive overhead; it must never be much
    # slower, and is typically 1.1-1.5x faster.
    assert compiled_seconds < interp_seconds * 1.15


def test_ablation_iep_counting(benchmark, mico):
    """GraphPi's IEP: replace independent-suffix loops with arithmetic."""
    from repro.core.atlas import FIVE_STAR, FOUR_STAR
    from repro.engines.graphpi.engine import GraphPiEngine

    with_iep = GraphPiEngine()
    without = GraphPiEngine()
    without.use_iep = False

    start = time.perf_counter()
    on_counts = [with_iep.count(mico, FOUR_STAR), with_iep.count(mico, FIVE_STAR)]
    on_seconds = time.perf_counter() - start

    def run_plain():
        start = time.perf_counter()
        counts = [without.count(mico, FOUR_STAR), without.count(mico, FIVE_STAR)]
        return counts, time.perf_counter() - start

    off_counts, off_seconds = benchmark.pedantic(run_plain, rounds=1, iterations=1)
    assert on_counts == off_counts
    benchmark.extra_info["iep_s"] = round(on_seconds, 3)
    benchmark.extra_info["plain_s"] = round(off_seconds, 3)
    benchmark.extra_info["speedup"] = round(off_seconds / on_seconds, 1)
    # Stars collapse their leaf loops entirely; the win is order-of-magnitude.
    assert off_seconds > on_seconds * 5
