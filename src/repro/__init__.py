"""repro — reproduction of "Accelerating Graph Mining Systems with
Subgraph Morphing" (Jamshidi, Xu & Vora, EuroSys 2023).

Public API quick tour — one call does the whole pipeline::

    import repro
    from repro.graph import datasets

    graph = datasets.mico()
    result = repro.run(graph, repro.motif_patterns(4))   # morphed 4-motifs
    # result.results: {pattern: count}; result.stats: engine counters

    # Pick an engine, go parallel, capture a structured trace:
    result = repro.run(graph, repro.motif_patterns(4),
                       options=repro.RunOptions(engine="autozero",
                                                workers=4, trace="run.jsonl"))
    result.trace.stage_seconds()      # {"transform": ..., "match": ..., ...}
    result.trace.audits               # cost-model predictions vs measurements

    # Baseline (no morphing) for comparison — results are identical:
    baseline = repro.run(graph, repro.motif_patterns(4),
                         options=repro.RunOptions(morph=False))

``repro.run`` accepts an engine name (``"peregrine"``, ``"autozero"``,
``"graphpi"``, ``"bigjoin"``, ``"sumpa"``) and one typed
:class:`RunOptions` carrying the whole configuration (``aggregation``,
``morph``, ``strategy``, ``workers``, ``margin``, ``cache``,
``plan_cache``, ``trace``, ``progress``, plus fault tolerance:
``deadline_seconds``, ``checkpoint``, ``retry``, ``faults``).
``repro.run`` returns a :class:`MorphRunResult`. Failures surface
through the typed :class:`ReproError` hierarchy; deadline-degraded runs
return :class:`PartialRunResult` (completed aggregates + coverage fraction),
and ``checkpoint=`` journals finished shards so an interrupted run can
resume (see ``docs/cookbook.md``, "Surviving failures"). Construct a
:class:`MorphingSession` directly for streaming mode
(:meth:`~MorphingSession.run_streaming`) or a caller-owned executor;
:class:`Tracer` + :class:`repro.observe.RunTrace` are the telemetry
surface (see ``docs/cookbook.md``, "Profiling a run").

For many queries against the same graphs, run the resident service
(``repro serve`` / :mod:`repro.serve`): graphs load once, plans and
results cache across queries, and :func:`repro.connect` returns a
client whose ``run`` mirrors this module's with identical typed
results.

Layout: ``repro.core`` is the paper's contribution (patterns, the
morphing algebra, S-DAG, cost model, result conversion);
``repro.plan`` the rewrite planner (Algorithm 1 selection, IEP
decomposition, typed plans); ``repro.engines`` holds the five system
substrates; ``repro.apps`` the mining applications (MC, SC, SE, FSM);
``repro.morph`` the plan executor and its two result sinks;
``repro.observe`` structured run telemetry; ``repro.graph`` data
graphs, generators and dataset stand-ins.
"""

from repro.api import ENGINES, resolve_engine, run
from repro.checkpoint import ShardCheckpoint
from repro.errors import (
    CheckpointError,
    GraphValidationError,
    ReproError,
    RunDeadlineExceeded,
    WorkerCrashError,
)
from repro.core.aggregation import (
    Aggregation,
    CountAggregation,
    ExistenceAggregation,
    MatchListAggregation,
    MNIAggregation,
)
from repro.core.atlas import (
    EVALUATION_PATTERNS,
    NAMED_PATTERNS,
    all_connected_patterns,
    motif_patterns,
    pattern_name,
)
from repro.core.canonical import are_isomorphic, canonical_form, pattern_id
from repro.core.costmodel import CostModel, EngineCostProfile, GraphModel
from repro.core.alternatives import enumerate_alternative_sets
from repro.core.equations import morph_equation, solve_query
from repro.core.parser import format_pattern, parse_pattern
from repro.core.pattern import Pattern
from repro.core.sdag import EDGE_INDUCED, VERTEX_INDUCED, SDag
from repro.engines.autozero.engine import AutoZeroEngine
from repro.engines.base import EngineStats, MiningEngine
from repro.engines.bigjoin.engine import BigJoinEngine
from repro.engines.recovery import Deadline, RetryPolicy
from repro.engines.graphpi.engine import GraphPiEngine
from repro.engines.peregrine.engine import PeregrineEngine
from repro.engines.sumpa.engine import SumPAEngine
from repro.graph.datagraph import DataGraph
from repro.morph.cache import MeasurementCache, PlanCache
from repro.plan import RewritePlan, search_plan, select_alternative_patterns
from repro.morph.session import (
    MorphingSession,
    MorphRunResult,
    PartialRunResult,
    compare_baseline_and_morphed,
)
from repro.options import RunOptions
from repro.serve.client import connect
from repro.testing import FaultPlan, FaultSpec
from repro.observe import (
    CostAuditRecord,
    MetricsRegistry,
    ProgressReporter,
    ProgressSnapshot,
    RunTrace,
    Span,
    Tracer,
    load_trace,
    write_chrome_trace,
    write_jsonl,
)

__version__ = "3.21.0"

__all__ = [
    "Aggregation",
    "AutoZeroEngine",
    "BigJoinEngine",
    "CheckpointError",
    "CostAuditRecord",
    "CostModel",
    "CountAggregation",
    "DataGraph",
    "Deadline",
    "EDGE_INDUCED",
    "ENGINES",
    "EngineCostProfile",
    "EngineStats",
    "EVALUATION_PATTERNS",
    "ExistenceAggregation",
    "FaultPlan",
    "FaultSpec",
    "GraphModel",
    "GraphPiEngine",
    "GraphValidationError",
    "MatchListAggregation",
    "MeasurementCache",
    "MetricsRegistry",
    "MiningEngine",
    "MNIAggregation",
    "MorphingSession",
    "MorphRunResult",
    "NAMED_PATTERNS",
    "PartialRunResult",
    "Pattern",
    "PeregrineEngine",
    "PlanCache",
    "ProgressReporter",
    "ProgressSnapshot",
    "ReproError",
    "RetryPolicy",
    "RewritePlan",
    "RunDeadlineExceeded",
    "RunOptions",
    "RunTrace",
    "SDag",
    "ShardCheckpoint",
    "Span",
    "SumPAEngine",
    "Tracer",
    "WorkerCrashError",
    "VERTEX_INDUCED",
    "all_connected_patterns",
    "are_isomorphic",
    "canonical_form",
    "compare_baseline_and_morphed",
    "connect",
    "enumerate_alternative_sets",
    "format_pattern",
    "load_trace",
    "morph_equation",
    "motif_patterns",
    "parse_pattern",
    "pattern_id",
    "pattern_name",
    "resolve_engine",
    "run",
    "search_plan",
    "select_alternative_patterns",
    "solve_query",
    "write_chrome_trace",
    "write_jsonl",
]
