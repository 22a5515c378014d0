"""Figure 4: profiling the baseline systems (no morphing).

Reproduces the paper's motivation measurements: where does time go in
each system and application? Asserted shapes:

* FSM is UDF-bound (4a): per-match MNI work dominates set operations.
* Enumeration pays UDF + materialization on top of set ops (4b).
* Counting is set-operation-bound with zero UDF calls (4c).
* GraphPi/BigJoin vertex-induced matching is Filter-UDF-bound and
  slower than edge-induced matching of the same shape (4d/4e).
* The data graph changes relative pattern performance (4f).
"""

from __future__ import annotations

import pytest

from repro.apps.fsm import mine_frequent_subgraphs
from repro.core.atlas import (
    CHORDAL_FOUR_CYCLE,
    FOUR_CLIQUE,
    FOUR_STAR,
    TAILED_TRIANGLE,
)
from repro.engines.bigjoin.engine import BigJoinEngine
from repro.engines.graphpi.engine import GraphPiEngine
from repro.engines.peregrine.engine import PeregrineEngine

from .conftest import breakdown_row

PATTERNS_4 = {
    "4S": FOUR_STAR,
    "TT": TAILED_TRIANGLE,
    "C4C": CHORDAL_FOUR_CYCLE,
    "4CL": FOUR_CLIQUE,
}


#: FSM runs behind Observation 1's gate. One run's UDF and set-op times
#: are two ≈20 ms wall times: warm runs read a UDF/set-op ratio of
#: 1.3-1.8, but the first run in a process has read 0.70 (2-CPU box),
#: so the gate is the median ratio over the runs, not one sample.
FSM_RUNS = 5


def test_fig4a_fsm_breakdown(benchmark, mico):
    """FSM on Peregrine: the MNI UDF dominates (Observation 1)."""
    engine = PeregrineEngine()
    results = benchmark.pedantic(
        lambda: [
            mine_frequent_subgraphs(
                mico, support_threshold=40, max_edges=2, engine=engine, morph=False
            )
            for _ in range(FSM_RUNS)
        ],
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(breakdown_row("3-FSM/MI", results[0].stats))
    assert all(result.stats.udf_calls > 0 for result in results)
    ratios = sorted(
        result.stats.udf_seconds / result.stats.setops.seconds for result in results
    )
    assert ratios[len(ratios) // 2] > 1, (
        f"FSM must be UDF-bound, not set-operation-bound (UDF/set-op {ratios})"
    )


@pytest.mark.parametrize("name", list(PATTERNS_4))
def test_fig4b_enumeration_breakdown(name, benchmark, mico):
    """SE on Peregrine: UDF time is non-trivial even for a cheap UDF."""
    pattern = PATTERNS_4[name].vertex_induced()
    engine = PeregrineEngine()
    sink = []

    def run():
        engine.reset_stats()
        engine.explore(mico, pattern, lambda p, m: sink.append(m[0]))
        return engine.stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(breakdown_row(f"SE/{name}", stats))
    assert stats.udf_calls == stats.matches
    assert stats.udf_seconds > 0
    assert stats.materialized == stats.matches


@pytest.mark.parametrize("name", list(PATTERNS_4))
def test_fig4c_counting_breakdown(name, benchmark, mico):
    """SC on Peregrine: set operations dominate; no UDF, no match
    materialization (the counting fast path)."""
    pattern = PATTERNS_4[name].vertex_induced()
    engine = PeregrineEngine()

    def run():
        engine.reset_stats()
        engine.count(mico, pattern)
        return engine.stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(breakdown_row(f"SC/{name}", stats))
    assert stats.udf_calls == 0
    assert stats.materialized == 0
    assert stats.setops.total_ops > 0


@pytest.mark.parametrize("engine_cls", [GraphPiEngine, BigJoinEngine])
@pytest.mark.parametrize("name", ["TT", "C4C"])
def test_fig4de_filter_udf_bottleneck(engine_cls, name, benchmark, mico):
    """4d/4e: on edge-induced-only systems, vertex-induced queries pay a
    Filter UDF per match and run slower than their edge-induced twins."""
    pattern = PATTERNS_4[name]
    edge_engine = engine_cls()
    edge_engine.count(mico, pattern)
    edge_seconds = edge_engine.stats.total_seconds

    vertex_engine = engine_cls()

    def run():
        vertex_engine.reset_stats()
        vertex_engine.count(mico, pattern.vertex_induced())
        return vertex_engine.stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    total = stats.total_seconds + stats.filter_seconds
    benchmark.extra_info.update(
        breakdown_row(f"{engine_cls.name}/{name}-V", stats, total)
    )
    benchmark.extra_info["edge_induced_s"] = round(edge_seconds, 4)
    assert stats.filter_calls > 0
    assert stats.branches > 0
    assert total > edge_seconds, (
        "vertex-induced (filtered) must cost more than edge-induced"
    )


def test_fig4f_graph_structure_effect(benchmark, mico, mag):
    """4f: the relative cost of TT vs 4S differs across data graphs."""
    def measure(graph, pattern):
        engine = PeregrineEngine()
        engine.count(graph, pattern.vertex_induced())
        return engine.stats.total_seconds

    def run():
        return {
            "mico_TT": measure(mico, TAILED_TRIANGLE),
            "mico_4S": measure(mico, FOUR_STAR),
            "mag_TT": measure(mag, TAILED_TRIANGLE),
            "mag_4S": measure(mag, FOUR_STAR),
        }

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio_mico = times["mico_4S"] / times["mico_TT"]
    ratio_mag = times["mag_4S"] / times["mag_TT"]
    benchmark.extra_info["ratio_4S_over_TT_mico"] = round(ratio_mico, 3)
    benchmark.extra_info["ratio_4S_over_TT_mag"] = round(ratio_mag, 3)
    # The structural point: the ratio is graph-dependent (Observation 3).
    assert ratio_mico != pytest.approx(ratio_mag, rel=0.05)
