"""Figure 13c: Frequent Subgraph Mining with morphing.

The paper reports 1.3-3.6× FSM speedups from morphing the most expensive
(frequently-labeled, loosely constrained) patterns into vertex-induced
alternatives with fewer matches, plus the §7.5 observation that *blind*
morphing (ignoring the cost model) is far slower than the query set.

At our 300-vertex scale the per-match MNI UDF no longer dominates the
way it does on 100K-vertex graphs (matching itself is Python-slow), so
the cost model usually declines FSM morphs; the asserted reproduction is

* exactness: frequent sets and supports identical with and without
  morphing, at every threshold;
* safety: the model-guided session stays within noise of baseline;
* the §7.5 shape: forcing every morph (huge margin) is measurably slower
  than the cost-model-guided run.

Every run here is pinned to the per-root kernel (``batch_roots=0``) —
the kernel the paper's claim is about (EXPERIMENTS.md, "Kernel caveat").
``repro.apps.fsm.mine_frequent_subgraphs`` takes no kernel option, so
``_mine`` below runs its level loop on a session this module builds.
"""

from __future__ import annotations

import pytest

from repro.apps import fsm as fsm_mod
from repro.core.aggregation import MNIAggregation
from repro.engines.peregrine.engine import PeregrineEngine
from repro.graph.generators import community_graph
from repro.morph.cache import MeasurementCache
from repro.morph.session import MorphingSession

from .conftest import PER_ROOT


@pytest.fixture(scope="module")
def fsm_graph():
    """Community-structured labeled graph (co-purchase-like)."""
    return community_graph(10, 22, 0.35, 120, seed=41, name="fsm-comm")


_BASELINES: dict = {}


def _mine(graph, threshold, max_edges=3, morph=True, margin=0.6):
    """``mine_frequent_subgraphs`` on a per-root session (see above)."""
    session = MorphingSession(
        PeregrineEngine(),
        aggregation=MNIAggregation(),
        enabled=morph,
        margin=margin,
        cache=MeasurementCache() if morph else None,
        **PER_ROOT,
    )
    return fsm_mod._mine_levels(session, graph, threshold, max_edges)


def _baseline(graph, threshold, max_edges=3):
    key = (graph.name, threshold, max_edges)
    if key not in _BASELINES:
        _BASELINES[key] = _mine(graph, threshold, max_edges, morph=False)
    return _BASELINES[key]


@pytest.mark.parametrize("threshold", [20, 14, 10])
def test_fig13c_fsm_morphing(threshold, benchmark, fsm_graph):
    base = _baseline(fsm_graph, threshold)
    morphed = benchmark.pedantic(
        lambda: _mine(fsm_graph, threshold),
        rounds=1,
        iterations=1,
    )
    speedup = base.total_seconds / max(morphed.total_seconds, 1e-9)
    benchmark.extra_info["threshold"] = threshold
    benchmark.extra_info["frequent_patterns"] = len(base.frequent)
    benchmark.extra_info["baseline_s"] = round(base.total_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["udf_calls_baseline"] = base.stats.udf_calls
    benchmark.extra_info["udf_calls_morphed"] = morphed.stats.udf_calls
    assert base.frequent == morphed.frequent, "morphing must be exact"
    # Low thresholds mine hundreds of patterns; per-level transformation
    # and timing noise both scale with candidate count, hence the loose
    # bound (exactness above is the hard guarantee).
    assert speedup > 0.5, "model-guided morphing must stay near baseline"


def test_fig13c_fsm_on_mico(benchmark, mico):
    base = _baseline(mico, 15)
    morphed = benchmark.pedantic(
        lambda: _mine(mico, 15),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["speedup"] = round(
        base.total_seconds / max(morphed.total_seconds, 1e-9), 3
    )
    assert base.frequent == morphed.frequent


#: Paired rounds of the blind-vs-guided comparison; each round runs both
#: sides back to back, and the side that goes first alternates (ABAB).
BLIND_ROUNDS = 5


def test_fig13c_blind_morphing_is_slower(benchmark, fsm_graph):
    """§7.5: blindly morphing all input patterns loses to the query set
    (the paper's 22h-vs-14h case); the cost model exists to avoid this.

    Each side takes about a second and single pairs have read ratios
    from 0.99 to 1.53 on a 2-CPU box, so the gate is the median blind/guided ratio over
    ``BLIND_ROUNDS`` paired rounds, not one sample of each."""
    threshold = 14
    base = _baseline(fsm_graph, threshold)

    def paired_rounds():
        pairs = []
        for i in range(BLIND_ROUNDS):
            # margin >> 1 forces every legal morph regardless of cost.
            sides = [("blind", 1e9), ("guided", 0.6)]
            timed = {
                name: _mine(fsm_graph, threshold, margin=margin)
                for name, margin in (sides if i % 2 == 0 else sides[::-1])
            }
            pairs.append((timed["blind"], timed["guided"]))
        return pairs

    pairs = benchmark.pedantic(paired_rounds, rounds=1, iterations=1)
    ratios = sorted(
        forced.total_seconds / max(guided.total_seconds, 1e-9)
        for forced, guided in pairs
    )
    forced, guided = pairs[0]
    benchmark.extra_info["baseline_s"] = round(base.total_seconds, 3)
    benchmark.extra_info["guided_s"] = round(guided.total_seconds, 3)
    benchmark.extra_info["blind_s"] = round(forced.total_seconds, 3)
    benchmark.extra_info["blind_over_guided"] = [round(r, 3) for r in ratios]
    for blind, _guided in pairs:
        assert blind.frequent == base.frequent, "even blind morphing is exact"
    assert ratios[len(ratios) // 2] > 1, (
        f"blind morphing must be slower than cost-model-guided morphing "
        f"(blind/guided ratios {ratios})"
    )
