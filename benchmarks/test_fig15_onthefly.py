"""Figure 15a/15b: Subgraph Enumeration with on-the-fly conversion.

The §7.3 workload: enumerate all edge-induced 4-vertex patterns whose
matched vertices pass a weight filter. Because the filter depends only on
the matched vertex set, morphing evaluates it once per vertex-induced
alternative match — before the permutation fan-out — cutting UDF
invocations (5-16× in the paper; a ~1.5× call reduction at our scale
where Python matching is as expensive as the filter).

Two filters are benchmarked:

* the paper's plain weight-window filter — cheap in our substrate, so
  the profiled cost model (Section 5.2's UDF profiling) declines the
  morph and stays at baseline speed;
* a two-hop smoothed-weight filter — expensive enough that profiling
  drives the morph, and the filter-call reduction materializes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.atlas import all_connected_patterns
from repro.engines.peregrine.engine import PeregrineEngine
from repro.graph.generators import random_weights
from repro.morph.session import MorphingSession

from .conftest import PER_ROOT


def _smoothed_filter(graph, weights):
    """Two-hop smoothed weight window: a realistic heavier analytics UDF."""
    mean, std = float(np.mean(weights)), float(np.std(weights))

    def accept(match):
        total = 0.0
        for v in match:
            neigh = graph.neighbors(v)
            if len(neigh) == 0:
                local = float(weights[v])
            else:
                local = 0.5 * float(weights[v]) + 0.5 * float(np.mean(weights[neigh]))
            total += local
        return (mean - std) <= total / len(match) <= (mean + std)

    return accept


def _cheap_filter(weights):
    from repro.apps.enumeration import weight_window_filter

    return weight_window_filter(weights)


def _run(graph, patterns, accept, enabled, margin=1.0):
    """margin=1.0 trusts the profiled filter cost outright; the cheap-
    filter case uses the default conservative margin instead."""
    session = MorphingSession(
        PeregrineEngine(), enabled=enabled, margin=margin, **PER_ROOT
    )
    result = session.run_streaming(
        graph, patterns, lambda p, m: None, vertex_filter=accept
    )
    return result


def test_fig15a_expensive_filter_morphs(benchmark, mico_small):
    weights = random_weights(mico_small, seed=7)
    accept = _smoothed_filter(mico_small, weights)
    patterns = list(all_connected_patterns(4))
    baseline = _run(mico_small, patterns, accept, enabled=False)
    morphed = benchmark.pedantic(
        lambda: _run(mico_small, patterns, accept, enabled=True),
        rounds=1,
        iterations=1,
    )
    speedup = baseline.total_seconds / max(morphed.total_seconds, 1e-9)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["udf_calls_baseline"] = baseline.stats.udf_calls
    benchmark.extra_info["udf_calls_morphed"] = morphed.stats.udf_calls
    assert baseline.results == morphed.results, "streams must be identical"
    assert any(morphed.selection.morphed.values()), (
        "profiled expensive filter must drive the morph"
    )
    assert speedup > 0.85


def test_fig15b_udf_call_reduction(benchmark, mico_small):
    """Figure 15b: the UDF (filter) invocation reduction itself."""
    weights = random_weights(mico_small, seed=7)
    accept = _smoothed_filter(mico_small, weights)
    patterns = list(all_connected_patterns(4))
    baseline = _run(mico_small, patterns, accept, enabled=False)
    morphed = benchmark.pedantic(
        lambda: _run(mico_small, patterns, accept, enabled=True),
        rounds=1,
        iterations=1,
    )
    reduction = baseline.stats.udf_calls / max(morphed.stats.udf_calls, 1)
    benchmark.extra_info["udf_call_reduction"] = round(reduction, 3)
    assert reduction > 1.3, (
        "vertex-induced alternatives see each subgraph once; the baseline "
        "filters it once per containing pattern"
    )


def test_fig15a_cheap_filter_declines(benchmark, mico_small):
    """With the paper's plain weight filter, profiling reveals the UDF is
    cheap here and the model correctly declines (no §7.5 regression)."""
    weights = random_weights(mico_small, seed=7)
    accept = _cheap_filter(weights)
    patterns = list(all_connected_patterns(4))
    baseline = _run(mico_small, patterns, accept, enabled=False)
    morphed = benchmark.pedantic(
        lambda: _run(mico_small, patterns, accept, enabled=True, margin=0.6),
        rounds=1,
        iterations=1,
    )
    speedup = baseline.total_seconds / max(morphed.total_seconds, 1e-9)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["morphed_any"] = any(morphed.selection.morphed.values())
    assert baseline.results == morphed.results
    assert speedup > 0.8
