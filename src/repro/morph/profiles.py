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
* BigJoin: no anti-edges; the weights keep the dataflow system's
  per-level binding materialization, which the shared kernels it runs
  here do not pay.
* SumPA: generic operation weights; listed for its calibrated clock.

Each profile's ``unit_seconds`` (cost units → wall seconds, used by
ETAs and the flight recorder's slowness verdict, never by rankings)
comes from ``tools/calibrate_costmodel.py --run-suite`` on
the plans the planner picks at the time of each fit: direct items on the
batched kernel and decomposed items as block folds. Peregrine's,
AutoZero's, GraphPi's and SumPA's were fit in 3.18.0 (two runs each:
3.2–3.3e-8, 4.3–4.4e-8, 5.0–5.1e-8 and 3.1–3.4e-8); BigJoin's in 3.17.0,
when it moved onto the shared kernels (3.1–3.8e-8 over four runs).
"""

from __future__ import annotations

from repro.core.costmodel import EngineCostProfile
from repro.engines.base import MiningEngine

PEREGRINE_PROFILE = EngineCostProfile(
    name="peregrine",
    unit_seconds=3.2e-8,  # tools/calibrate_costmodel.py --run-suite
    intersection_weight=2.0,
    difference_weight=2.5,
    materialize_weight=1.5,
    per_udf_call_weight=2.5,
    native_anti_edges=True,
)

AUTOZERO_PROFILE = EngineCostProfile(
    name="autozero",
    unit_seconds=4.4e-8,  # tools/calibrate_costmodel.py --run-suite
    intersection_weight=1.2,  # merged schedules share loop prefixes
    difference_weight=1.8,
    materialize_weight=1.5,
    per_udf_call_weight=2.5,
    native_anti_edges=True,
)

GRAPHPI_PROFILE = EngineCostProfile(
    name="graphpi",
    unit_seconds=5.1e-8,  # tools/calibrate_costmodel.py --run-suite
    intersection_weight=1.8,  # model-selected orders shave set-op work
    difference_weight=2.3,
    materialize_weight=1.5,
    per_udf_call_weight=2.5,
    filter_check_weight=0.4,
    native_anti_edges=False,
)

BIGJOIN_PROFILE = EngineCostProfile(
    name="bigjoin",
    unit_seconds=3.6e-8,  # tools/calibrate_costmodel.py --run-suite
    intersection_weight=2.0,
    difference_weight=2.5,
    materialize_weight=2.5,  # per-level binding materialization
    per_udf_call_weight=2.5,
    filter_check_weight=0.4,
    native_anti_edges=False,
)

SUMPA_PROFILE = EngineCostProfile(
    name="sumpa",
    unit_seconds=3.2e-8,  # tools/calibrate_costmodel.py --run-suite
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
