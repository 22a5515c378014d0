"""The traced run: a second, separate run that yields the per-layer numbers.

End-to-end metrics are measured with tracing off (``run.py``). This run
repeats a third of the workload's op list twice — once bare, once with
benchmark-side spans around every call into the program — probes every
layer from a fresh worker child (``layers.py``), and writes all spans to
``trace-<workload>.jsonl``. Self time is a span minus its children, so
``morph.overhead_s`` and ``serve.wire_s_p50`` are derived, not guessed.

Every run prints every per-layer metric, so the layers a workload does
not itself exercise are measured on the side: the in-process workloads
add a short cold probe against a daemon for the ``serve.*`` numbers, the
served ones get their ``morph.*`` numbers from the layer child running a
sample of their queries through ``repro.run``.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import repro

from benchmarks.morphbench import harness, inputs, oracle
from benchmarks.morphbench.spans import SpanLog, check_nesting, duration, self_seconds
from benchmarks.morphbench.worker import CALL_SPAN

#: The traced passes run this fraction of the end-to-end op list.
TRACE_DIVISOR = 3
#: Cold queries of the daemon probe an in-process workload's run adds.
SERVE_PROBE_OPS = 45
#: Queries of a served workload the layer child runs in-process.
PROBE_QUERIES = 9

#: Every per-layer metric and its unit (BENCHMARK.json lists the same).
PER_LAYER_UNITS = {
    "graph.build_s": "s",
    "graph.export_s": "s",
    "core.sdag_s": "s",
    "core.convert_s": "s",
    "core.onthefly_fanout": "count",
    "plan.search_s": "s",
    "plan.cache_hit_s": "s",
    "plan.measured_items": "count",
    "plan.auto_over_direct": "ratio",
    "engines.setops.intersect_ns_per_elem.r1": "ns",
    "engines.setops.intersect_ns_per_elem.r8": "ns",
    "engines.setops.intersect_ns_per_elem.r64": "ns",
    "engines.setops.difference_ns_per_elem.r1": "ns",
    "engines.setops.difference_ns_per_elem.r8": "ns",
    "engines.base.count_s": "s",
    "engines.frontier.count_s": "s",
    "engines.base.explore_s": "s",
    "engines.matches_per_s": "1/s",
    "engines.matches": "count",
    "engines.setops.intersections": "count",
    "engines.setops.elements_scanned": "count",
    "engines.execution.pool_start_s": "s",
    "engines.execution.w2_over_serial": "ratio",
    "morph.transform_s": "s",
    "morph.match_s": "s",
    "morph.overhead_s": "s",
    "serve.protocol.encode_s": "s",
    "serve.protocol.decode_s": "s",
    "serve.client.ping_rtt_s": "s",
    "serve.client.rtt_s_p90": "s",
    "serve.client.rtt_s_p99": "s",
    "serve.scheduler.queue_wait_s_p50": "s",
    "serve.server.total_s_p50": "s",
    "serve.server.plan_s_p50": "s",
    "serve.server.match_s_p50": "s",
    "serve.server.result_cache_hit_ratio": "ratio",
    "serve.wire_s_p50": "s",
    "serve.server.handle_hit_s": "s",
    "apps.fsm.mine_s": "s",
    "apps.fsm.candidates": "count",
    "observe.trace_overhead_frac": "ratio",
}


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def morph_metrics(spans: list[dict], call_name: str) -> dict[str, float]:
    """Medians over every ``call_name`` span: its transform and match
    phases (the result's public ``*_seconds``, laid inside it as
    children) and its self time. The convert and executor phases are in
    the trace file but not metrics: they read exactly 0.0 wherever the
    selection declines the morph or the run is serial."""
    own = self_seconds(spans)
    calls = {span["id"] for span in spans if span["name"] == call_name}
    phases: dict[str, list[float]] = {}
    for span in spans:
        if span["parent"] in calls:
            phases.setdefault(span["name"], []).append(duration(span))
    metrics = {
        f"{name}_s": statistics.median(values) for name, values in phases.items()
    }
    metrics["morph.overhead_s"] = statistics.median(own[call] for call in calls)
    return metrics


def run_traced(
    workload: str,
    seed: int,
    ops: int,
    *,
    vertices: int | None,
    golden_dir: Path,
    out_dir: Path,
) -> tuple[dict[str, float], int, int]:
    """``(per-layer metrics, ops attempted, ops failed)``."""
    ops = max(inputs.min_ops(workload), ops // TRACE_DIVISOR)
    log = SpanLog()
    root = log.add("traced-run", time.perf_counter(), None)

    bare = harness.run_pass(workload, seed, ops, vertices=vertices)
    traced, failed = oracle.verified_pass(
        workload, seed, ops, golden_dir, trace=True, vertices=vertices
    )
    log.extend(traced.spans.spans, parent=root["id"])
    attempted = len(traced.op_seconds)

    queries = None
    if workload in inputs.SERVED:
        _warm, timed = inputs.served_queries(workload, seed, ops)
        queries = [repro.format_pattern(q) for q in timed[:PROBE_QUERIES]]
    layers = harness.ask_worker(
        workload, seed, vertices, cmd="layers", queries=queries
    )
    log.extend(layers["spans"], parent=root["id"])
    metrics = dict(layers["metrics"])

    if workload in inputs.IN_PROCESS:
        # The op's exact counters come from the real op, not the probe.
        metrics.update(traced.layer)
        metrics.update(morph_metrics(traced.spans.spans, CALL_SPAN[workload]))
        served = harness.served_pass("serve-cold", seed, SERVE_PROBE_OPS, trace=True)
        log.extend(served.spans.spans, parent=root["id"])
        attempted += len(served.op_seconds)
        failed += oracle.failed_served("serve-cold", served.answers, {})
    else:
        metrics.update(morph_metrics(layers["spans"], "morph.run"))
        served = traced
    metrics.update(served.layer)
    client_p50 = statistics.median(served.op_seconds)
    metrics["serve.client.rtt_s_p90"] = percentile(served.op_seconds, 0.90)
    metrics["serve.client.rtt_s_p99"] = percentile(served.op_seconds, 0.99)
    metrics["serve.wire_s_p50"] = client_p50 - metrics["serve.server.total_s_p50"]

    bare_p50 = statistics.median(bare.op_seconds)
    metrics["observe.trace_overhead_frac"] = (
        statistics.median(traced.op_seconds) - bare_p50
    ) / bare_p50

    root["end"] = time.perf_counter()
    problems = check_nesting(log.spans)
    if problems:
        raise RuntimeError("span contract violated: " + "; ".join(problems[:5]))
    log.write(out_dir / f"trace-{workload}.jsonl")
    return {name: metrics[name] for name in PER_LAYER_UNITS}, attempted, failed
