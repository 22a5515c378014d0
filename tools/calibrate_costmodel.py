#!/usr/bin/env python
"""Calibrate per-engine cost-model constants from stored cost audits.

The abstract cost model prices work in engine-relative *cost units*;
:class:`repro.EngineCostProfile.unit_seconds` converts those units to
wall seconds (ETAs, the planner's python-op pricing, cross-engine
comparisons). Within-engine rankings — everything Algorithm 1 and the
rewrite planner decide — are scale-invariant in it, so calibration can
never change a plan's shape, only its clock predictions.

This tool fits ``unit_seconds`` per engine by least squares through the
origin over stored :class:`repro.CostAuditRecord` streams::

    k = argmin_k sum_i (t_i - k * c_i)^2  =  sum(c*t) / sum(c^2)

where ``c`` is an item's predicted cost units and ``t`` its measured
match seconds. Cached items and the per-run selection summary are
skipped — they carry no fresh measurement.

Inputs are JSONL traces as written by ``RunOptions(trace=path)``
(the engine name is read from each trace's ``run`` span). With no
trace arguments, ``--run-suite`` measures a fresh calibration workload
across all five engines in-process and fits from that.

The report also recomputes :func:`repro.observe.rank_agreement` per
engine and flags *degenerate* workloads — runs whose audits yield no
comparable pairs (every item tied on predicted cost, or fewer than two
measured items), which previously scored a meaningless 0.0/1.0 or
poisoned trend gates. Those runs are excluded from the fit and listed
so the workload, not the model, gets fixed.

Usage::

    PYTHONPATH=src python tools/calibrate_costmodel.py trace1.jsonl ...
    PYTHONPATH=src python tools/calibrate_costmodel.py --run-suite
    PYTHONPATH=src python tools/calibrate_costmodel.py --run-suite --json out.json

The fitted constants are meant to be fed back into
``src/repro/morph/profiles.py`` (each profile's ``unit_seconds=``);
the shipped defaults were produced by ``--run-suite`` on the benchmark
generator graphs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class EngineFit:
    """One engine's calibration: the fit plus its quality evidence."""

    engine: str
    unit_seconds: float
    records: int
    r_squared: float
    rank_agreement: float | None
    degenerate_runs: int

    def row(self, current: float) -> str:
        ra = "n/a" if self.rank_agreement is None else f"{self.rank_agreement:.2f}"
        drift = self.unit_seconds / current if current else float("inf")
        return (
            f"{self.engine:<10} {self.unit_seconds:>12.3e} {current:>12.3e} "
            f"{drift:>7.2f}x {self.records:>5} {self.r_squared:>6.3f} "
            f"{ra:>6} {self.degenerate_runs:>5}"
        )


def usable_audits(audits):
    """Audit records that carry a fresh per-item measurement."""
    return [
        r
        for r in audits
        if r.role in ("alternative", "query")
        and not r.cached
        and r.predicted_cost > 0
        and r.measured_seconds > 0
    ]


def fit_unit_seconds(audits) -> tuple[float, float]:
    """Least-squares-through-origin ``(unit_seconds, r_squared)``.

    ``r_squared`` is computed against the through-origin model (sum of
    squares about zero, the standard uncentered form), so a perfectly
    proportional predictor scores 1.0 regardless of scale.
    """
    num = sum(r.predicted_cost * r.measured_seconds for r in audits)
    den = sum(r.predicted_cost**2 for r in audits)
    if den <= 0:
        return 0.0, 0.0
    k = num / den
    ss_res = sum((r.measured_seconds - k * r.predicted_cost) ** 2 for r in audits)
    ss_tot = sum(r.measured_seconds**2 for r in audits)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return k, r2


def calibrate(runs) -> list[EngineFit]:
    """Fit every engine appearing in ``runs`` — ``(engine, audits)`` pairs.

    A run whose usable audits produce no rank verdict (fewer than two
    comparable pairs — see :func:`repro.observe.rank_agreement`) is
    counted as degenerate and left out of that engine's fit.
    """
    from repro.observe.audit import rank_agreement

    by_engine: dict[str, list] = {}
    degenerate: dict[str, int] = {}
    for engine, audits in runs:
        usable = usable_audits(audits)
        if rank_agreement(usable) is None:
            degenerate[engine] = degenerate.get(engine, 0) + 1
            continue
        by_engine.setdefault(engine, []).extend(usable)
    fits = []
    for engine in sorted(set(by_engine) | set(degenerate)):
        audits = by_engine.get(engine, [])
        k, r2 = fit_unit_seconds(audits) if audits else (0.0, 0.0)
        fits.append(
            EngineFit(
                engine=engine,
                unit_seconds=k,
                records=len(audits),
                r_squared=r2,
                rank_agreement=rank_agreement(audits) if audits else None,
                degenerate_runs=degenerate.get(engine, 0),
            )
        )
    return fits


def load_runs(paths):
    """``(engine, audits)`` per stored JSONL trace (engine from run span)."""
    from repro.observe import load_trace

    runs = []
    for path in paths:
        trace = load_trace(path)
        engine = "unknown"
        for span in trace.find("run"):
            engine = str(span.attributes.get("engine", engine))
        runs.append((engine, trace.audits))
    return runs


def run_suite(repeats: int = 3):
    """Measure a fresh calibration workload on every engine, in-process.

    The workload mixes pattern sizes (all 4-vertex motifs plus the
    5-star) so predicted costs spread across an order of magnitude —
    tied predictions are exactly what makes a run degenerate. Each
    engine runs ``repeats`` times; every traced run is one fit sample.
    """
    import repro
    from repro.core.atlas import FIVE_STAR, motif_patterns
    from repro.graph.generators import power_law_cluster

    graph = power_law_cluster(220, 4, 0.4, seed=17)
    patterns = list(motif_patterns(4)) + [FIVE_STAR]
    runs = []
    for engine in sorted(repro.ENGINES):
        for _ in range(repeats):
            tracer = repro.Tracer()
            repro.run(
                graph,
                patterns,
                engine,
                options=repro.RunOptions(trace=tracer),
            )
            runs.append((engine, list(tracer.audits)))
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="*", help="stored JSONL trace files")
    parser.add_argument(
        "--run-suite",
        action="store_true",
        help="measure a fresh calibration suite across all engines",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="suite runs per engine"
    )
    parser.add_argument("--json", help="also dump the fits as JSON")
    args = parser.parse_args(argv)
    if not args.traces and not args.run_suite:
        parser.error("give stored trace files, or --run-suite to measure one")

    runs = load_runs(args.traces)
    if args.run_suite:
        runs.extend(run_suite(args.repeats))
    fits = calibrate(runs)
    if not fits:
        print("no cost audits found in the given traces", file=sys.stderr)
        return 1

    from repro.morph.profiles import profile_for

    print(
        f"{'engine':<10} {'fitted_s/unit':>12} {'current':>12} "
        f"{'drift':>8} {'n':>5} {'r^2':>6} {'rank':>6} {'degen':>5}"
    )
    for fit in fits:
        print(fit.row(profile_for(fit.engine).unit_seconds))
    total_degen = sum(f.degenerate_runs for f in fits)
    if total_degen:
        print(
            f"note: {total_degen} degenerate run(s) excluded from the fit "
            "(no comparable predicted-cost pairs — widen the workload's "
            "pattern mix)"
        )
    print(
        "feed fitted values into src/repro/morph/profiles.py "
        "(EngineCostProfile unit_seconds=)"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    f.engine: {
                        "unit_seconds": f.unit_seconds,
                        "records": f.records,
                        "r_squared": f.r_squared,
                        "rank_agreement": f.rank_agreement,
                        "degenerate_runs": f.degenerate_runs,
                    }
                    for f in fits
                },
                fh,
                indent=2,
            )
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
