"""Per-system cost profiles (Section 4.4 / Observation 4).

The same pattern ranks differently across systems — the paper's example:
choose tailed triangle over 4-cycle on GraphPi but not on Peregrine.
Morphing captures this by weighting the cost model with system-specific
operation costs. Profiles below reflect each substrate's structure:

* Peregrine: native anti-edges (differences slightly pricier than
  intersections), per-pattern matching, cheap materialization.
* AutoZero: merged schedules make extra patterns cheap — modeled with a
  lower intersection weight (shared prefixes amortize ops).
* GraphPi: no anti-edges; Filter-UDF checks are branchy and expensive.
* BigJoin: no anti-edges; materializes every level, so materialization
  and per-tuple costs are high.
* SumPA: generic operation weights; listed for its calibrated clock.

Each profile's ``unit_seconds`` (cost units → wall seconds, used by
ETAs and the flight recorder's slowness verdict, never by rankings)
comes from ``tools/calibrate_costmodel.py --run-suite --repeats 5`` on
the plans the planner picks today: direct items on the batched kernel
and decomposed items as block folds both run at 1–2e-7 s per unit
(BigJoin, whose BFS join is per-binding Python, at ~5e-6).
"""

from __future__ import annotations

from repro.core.costmodel import EngineCostProfile
from repro.engines.base import MiningEngine

PEREGRINE_PROFILE = EngineCostProfile(
    name="peregrine",
    unit_seconds=1.4e-7,  # tools/calibrate_costmodel.py --run-suite
    intersection_weight=2.0,
    difference_weight=2.5,
    materialize_weight=1.5,
    per_udf_call_weight=2.5,
    native_anti_edges=True,
)

AUTOZERO_PROFILE = EngineCostProfile(
    name="autozero",
    unit_seconds=1.7e-7,  # tools/calibrate_costmodel.py --run-suite
    intersection_weight=1.2,  # merged schedules share loop prefixes
    difference_weight=1.8,
    materialize_weight=1.5,
    per_udf_call_weight=2.5,
    native_anti_edges=True,
)

GRAPHPI_PROFILE = EngineCostProfile(
    name="graphpi",
    unit_seconds=2.2e-7,  # tools/calibrate_costmodel.py --run-suite
    intersection_weight=1.8,  # model-selected orders shave set-op work
    difference_weight=2.3,
    materialize_weight=1.5,
    per_udf_call_weight=2.5,
    filter_check_weight=0.4,
    native_anti_edges=False,
)

BIGJOIN_PROFILE = EngineCostProfile(
    name="bigjoin",
    unit_seconds=4.8e-6,  # tools/calibrate_costmodel.py --run-suite
    intersection_weight=2.0,
    difference_weight=2.5,
    materialize_weight=2.5,  # per-level binding materialization
    per_udf_call_weight=2.5,
    filter_check_weight=0.4,
    native_anti_edges=False,
)

SUMPA_PROFILE = EngineCostProfile(
    name="sumpa",
    unit_seconds=1.8e-7,  # tools/calibrate_costmodel.py --run-suite
    native_anti_edges=True,
)

_BY_NAME = {
    p.name: p
    for p in (
        PEREGRINE_PROFILE,
        AUTOZERO_PROFILE,
        GRAPHPI_PROFILE,
        BIGJOIN_PROFILE,
        SUMPA_PROFILE,
    )
}


def profile_for(engine: MiningEngine | str) -> EngineCostProfile:
    """Cost profile for an engine (falls back to a generic profile)."""
    name = engine if isinstance(engine, str) else engine.name
    profile = _BY_NAME.get(name)
    if profile is not None:
        return profile
    native = True if isinstance(engine, str) else engine.native_anti_edges
    return EngineCostProfile(name=name, native_anti_edges=native)
