"""Figure 15c/15d: scaling Subgraph Morphing to 7-vertex patterns.

The §7.4 methodology: partition the Products and Orkut graphs (METIS in
the paper, LDG here), drop cut edges, and mine the 7-vertex patterns pV9
and pV10 within a partition on Peregrine (15c) and GraphPi (15d).

Substrate divergence, recorded in EXPERIMENTS.md: the paper reports 2-7×
wins because in C++ engines per-match work dwarfs set operations; in this
Python substrate anti-edge pruning is comparatively cheap and the
edge-induced closures of dense 7-vertex patterns are expensive, so the
cost model usually *declines* the morph. The asserted reproduction is
therefore (a) exact results through the full large-pattern machinery
(48- and 26-node S-DAGs, closure solves), (b) no regression from the
guided decision, and (c) the §7.5 shape: forcing the morph is slower —
the decline is correct, not a missed opportunity.
"""

from __future__ import annotations

import pytest

from repro.core.atlas import P9, P10
from repro.engines.graphpi.engine import GraphPiEngine
from repro.engines.peregrine.engine import PeregrineEngine
from repro.morph.session import MorphingSession

from .conftest import (
    PER_ROOT,
    make_row,
    record_comparison,
    run_baseline_cached,
    run_morphed,
)

_PATTERNS = {"pV9": P9.vertex_induced(), "pV10": P10.vertex_induced()}


@pytest.mark.parametrize("name", ["pV9", "pV10"])
@pytest.mark.parametrize("part_name", ["products_partition", "orkut_partition"])
def test_fig15c_peregrine_large_patterns(name, part_name, benchmark, request):
    graph = request.getfixturevalue(part_name)
    pattern = _PATTERNS[name]
    baseline = run_baseline_cached(PeregrineEngine, graph, [pattern], name)
    morphed = benchmark.pedantic(
        lambda: run_morphed(PeregrineEngine, graph, [pattern]),
        rounds=1,
        iterations=1,
    )
    row = make_row(name, graph, baseline, morphed)
    record_comparison(benchmark, row)
    assert row.results_equal
    # Tiny baselines (sparse partitions) are dominated by the fixed
    # transformation cost; bound the absolute overhead in that case.
    assert row.speedup > 0.6 or (
        row.morphed_seconds - row.baseline_seconds < 0.6
    ), "guided decision must not regress"


@pytest.mark.parametrize("name", ["pV9", "pV10"])
def test_fig15d_graphpi_large_patterns(name, benchmark, orkut_partition):
    pattern = _PATTERNS[name]
    baseline = run_baseline_cached(GraphPiEngine, orkut_partition, [pattern], name)
    morphed = benchmark.pedantic(
        lambda: run_morphed(GraphPiEngine, orkut_partition, [pattern]),
        rounds=1,
        iterations=1,
    )
    row = make_row(name, orkut_partition, baseline, morphed)
    record_comparison(benchmark, row)
    assert row.results_equal
    assert row.speedup > 0.6 or (
        row.morphed_seconds - row.baseline_seconds < 0.6
    )


def test_fig15cd_forced_morph_validates_decline(benchmark, products_partition):
    """Forcing the pV10 morph (margin → ∞) exercises the full 26-pattern
    closure and must (a) stay exact and (b) cost at least as much as the
    guided run — evidence the decline is the right call here."""
    pattern = _PATTERNS["pV10"]
    guided = run_morphed(PeregrineEngine, products_partition, [pattern])

    def forced():
        session = MorphingSession(
            PeregrineEngine(), enabled=True, margin=1e9, **PER_ROOT
        )
        return session.run(products_partition, [pattern])

    forced_run = benchmark.pedantic(forced, rounds=1, iterations=1)
    benchmark.extra_info["guided_s"] = round(guided.total_seconds, 3)
    benchmark.extra_info["forced_s"] = round(forced_run.total_seconds, 3)
    benchmark.extra_info["forced_patterns"] = len(forced_run.measured)
    assert forced_run.results == guided.results
    assert len(forced_run.measured) > 1, "forcing must actually morph"
    assert forced_run.total_seconds >= guided.total_seconds * 0.9
