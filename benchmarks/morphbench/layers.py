"""Per-layer probes: one timing per layer, taken from outside.

Run by the worker child on the workload's own graph and query sets, in
an order that keeps the cold numbers cold: the S-DAG is built before
anything else touches the morphing algebra, plans are searched before
any op has run. Each probe calls a public function of one layer of
``repro`` and times that call; nothing here reaches into the program.

A *probe op* is the query set of one op of the workload: the six
4-motifs for ``mc4-count``, the two enumeration queries for
``enum-stream`` (probed in count mode), one labeled query each for the
served workloads (a seeded sample of the timed list).
"""

from __future__ import annotations

import io
import random
import statistics
import time

import numpy as np

import repro
from repro.apps.fsm import mine_frequent_subgraphs
from repro.core.aggregation import CountAggregation, MatchListAggregation
from repro.core.conversion import convert_counts, on_the_fly_plan
from repro.core.costmodel import CostModel
from repro.core.equations import item_of, materialize
from repro.engines import setops
from repro.engines.execution import export_graph, make_executor
from repro.engines.peregrine.engine import PeregrineEngine
from repro.graph.generators import assign_labels, power_law_cluster
from repro.morph.profiles import profile_for
from repro.serve import GraphRegistry, MiningServer, protocol

from benchmarks.morphbench import inputs
from benchmarks.morphbench.spans import SpanLog
from benchmarks.morphbench.worker import phases_of

#: Root-batch size of the batched frontier kernel probe.
FRONTIER_BATCH = 2048


def timed(function, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def mean_seconds(function, repeats: int) -> float:
    """Mean seconds per call of a sub-millisecond operation."""
    start = time.perf_counter()
    for _ in range(repeats):
        function()
    return (time.perf_counter() - start) / repeats


def probe(workload: str, graph, build_s: float, seed: int, request: dict) -> dict:
    """Every layer probe, in cold-first order."""
    if workload in inputs.IN_PROCESS:
        probe_ops = [inputs.op_patterns(workload)]
    else:
        probe_ops = [[repro.parse_pattern(t)] for t in request["queries"]]
    spans = SpanLog()
    metrics: dict[str, float] = {"graph.build_s": build_s}
    with spans.span("layers"):
        with spans.span("core"):
            plans = probe_core_and_plan(graph, probe_ops, metrics)
        with spans.span("morph"):
            auto_seconds = probe_morph(graph, probe_ops, spans, metrics)
        with spans.span("plan.auto_over_direct"):
            direct_seconds = sum(
                timed(repro.run, graph, op, options=repro.RunOptions(strategy="direct"))[1]
                for op in probe_ops
            )
            metrics["plan.auto_over_direct"] = auto_seconds / direct_seconds
        with spans.span("engines.setops"):
            probe_setops(graph, seed, metrics)
        with spans.span("engines"):
            probe_engines(graph, plans, metrics)
        with spans.span("engines.execution"):
            probe_execution(graph, probe_ops, auto_seconds, metrics)
        with spans.span("graph.export"):
            metrics["graph.export_s"] = probe_export(graph)
        with spans.span("serve"):
            probe_serve_in_process(graph, probe_ops[0], metrics)
        with spans.span("apps.fsm"):
            probe_fsm(seed, metrics)
    return {"metrics": metrics, "spans": spans.spans}


def probe_core_and_plan(graph, probe_ops, metrics) -> list:
    """``core.sdag_s`` (first touch), ``plan.*`` and ``core.onthefly_fanout``."""
    every_query = [query for op in probe_ops for query in op]
    _sdag, metrics["core.sdag_s"] = timed(repro.SDag.build, every_query)

    plans, search_seconds = [], []
    for op in probe_ops:
        start = time.perf_counter()
        cost_model = CostModel.for_graph(
            graph, profile_for("peregrine"), CountAggregation()
        )
        plans.append(repro.search_plan(op, cost_model))
        search_seconds.append(time.perf_counter() - start)
    metrics["plan.search_s"] = statistics.median(search_seconds)
    metrics["plan.measured_items"] = sum(
        len(plan.selection.measured) for plan in plans
    )

    cache = repro.PlanCache()
    key = dict(engine="peregrine", strategy="auto", margin=0.6)
    cache.put(graph, probe_ops[0], CountAggregation(), plans[0], **key)
    metrics["plan.cache_hit_s"] = mean_seconds(
        lambda: cache.get(graph, probe_ops[0], CountAggregation(), **key), 2000
    )

    # Algorithm 3's fan-out: force the morph of the edge-induced form of
    # every query (margin large) and add up what each converter emits
    # per alternative match.
    edge_queries = [query.edge_induced() for query in every_query]
    stream_model = CostModel.for_graph(
        graph, profile_for("peregrine"), MatchListAggregation()
    )
    selection = repro.select_alternative_patterns(
        edge_queries, stream_model, MatchListAggregation(), margin=1e9
    )
    metrics["core.onthefly_fanout"] = sum(
        converter.expansion_factor
        for query in edge_queries
        for converter in on_the_fly_plan(
            query, selection.measured, lambda _p, _m: None
        ).values()
    )
    return plans


def probe_morph(graph, probe_ops, spans, metrics) -> float:
    """Run each probe op once under a ``morph.run`` span; time
    Algorithm 2 (``convert_counts``) on what it measured. Returns the
    ops' total wall seconds (the ``auto`` side of the strategy ratio)."""
    total = 0.0
    convert_seconds = []
    for counter in ("matches", "setops.intersections", "setops.elements_scanned"):
        metrics[f"engines.{counter}"] = 0
    for op_id, op in enumerate(probe_ops):
        cache = repro.MeasurementCache()
        with spans.span("morph.run", op=op_id) as call:
            result = repro.run(graph, op, options=repro.RunOptions(cache=cache))
        spans.add_phases(call, phases_of(result))
        total += call["end"] - call["start"]
        # A run whose morph was declined measured the queries as given
        # and left the cache empty: its measured values are its results.
        direct = {item_of(query): result.results[query] for query in op}
        measured = {}
        for item in result.measured:
            value = cache.get(graph, CountAggregation(), item)
            measured[item] = direct[item] if value is None else value
        convert_seconds.append(
            mean_seconds(lambda: convert_counts(op, measured), 20)
        )
        metrics["engines.matches"] += result.stats.matches
        metrics["engines.setops.intersections"] += result.stats.setops.intersections
        metrics["engines.setops.elements_scanned"] += (
            result.stats.setops.elements_scanned
        )
    metrics["core.convert_s"] = statistics.median(convert_seconds)
    return total


def probe_setops(graph, seed: int, metrics) -> None:
    """Set-op kernels on real adjacency lists at size ratios 1:1-1:64.

    The small side is always a list of about eight neighbours (a
    typical candidate set after symmetry breaking); the big side is the
    adjacency of a vertex whose degree is closest to ratio x that.
    """
    rng = random.Random(seed)
    degrees = graph.degrees
    order = np.argsort(degrees, kind="stable")
    sorted_degrees = degrees[order]
    small_pool = order[np.searchsorted(sorted_degrees, 8) :][:64]

    def pairs(ratio: int):
        target = int(np.searchsorted(sorted_degrees, 8 * ratio))
        big_pool = order[min(target, len(order) - 1) :][:64]
        return [
            (
                graph.neighbors(int(rng.choice(small_pool))),
                graph.neighbors(int(rng.choice(big_pool))),
            )
            for _ in range(256)
        ]

    def ns_per_element(kernel, ratio: int) -> float:
        sample = pairs(ratio)
        stats = setops.SetOpStats()
        repeats = 8
        start = time.perf_counter()
        for _ in range(repeats):
            for small, big in sample:
                kernel(small, big, stats)
        seconds = time.perf_counter() - start
        return seconds * 1e9 / stats.elements_scanned

    for ratio in (1, 8, 64):
        metrics[f"engines.setops.intersect_ns_per_elem.r{ratio}"] = ns_per_element(
            setops.intersect, ratio
        )
    for ratio in (1, 8):
        metrics[f"engines.setops.difference_ns_per_elem.r{ratio}"] = ns_per_element(
            lambda small, big, stats: setops.difference(big, small, stats), ratio
        )


def probe_engines(graph, plans, metrics) -> None:
    """Count (per-root and batched) and explore on the heaviest
    pattern any probe op's plan measures directly."""
    steps = [step for plan in plans for step in plan.measure_steps]
    heaviest = materialize(max(steps, key=lambda step: step.predicted_cost).item)

    _count, metrics["engines.base.count_s"] = timed(
        PeregrineEngine().count, graph, heaviest
    )
    batched = PeregrineEngine()
    batched.batch_roots = FRONTIER_BATCH
    _count, metrics["engines.frontier.count_s"] = timed(
        batched.count, graph, heaviest
    )
    matches, metrics["engines.base.explore_s"] = timed(
        PeregrineEngine().explore, graph, heaviest, lambda _p, _m: None
    )
    metrics["engines.matches_per_s"] = matches / metrics["engines.base.explore_s"]


def probe_execution(graph, probe_ops, serial_seconds: float, metrics) -> None:
    """Pool spin-up to the first shard, and ``workers=2`` over serial.

    No end-to-end workload runs ``workers > 1``: on two shared cores
    that would time the scheduler. The ratio is recorded here only.
    """
    executor = make_executor(2)
    try:
        _none, metrics["engines.execution.pool_start_s"] = timed(
            executor.prepare, PeregrineEngine(), graph
        )
    finally:
        executor.close()
    parallel_seconds = sum(
        timed(repro.run, graph, op, options=repro.RunOptions(workers=2))[1]
        for op in probe_ops
    )
    metrics["engines.execution.w2_over_serial"] = parallel_seconds / serial_seconds


def probe_export(graph) -> float:
    """Shared-memory export plus one zero-copy attach."""
    start = time.perf_counter()
    payload = export_graph(graph)
    try:
        if payload is not None:
            payload.attach()
        return time.perf_counter() - start
    finally:
        if payload is not None:
            payload.dispose()


def probe_serve_in_process(graph, queries, metrics) -> None:
    """Wire encode/decode of a captured response, and the daemon's
    whole cache-hit path (``MiningServer.handle``) without a socket."""
    registry = GraphRegistry(share=False)
    registry.add("g", graph)
    request = {
        "op": "run",
        "graph": "g",
        "patterns": [repro.format_pattern(q) for q in queries],
    }
    server = MiningServer(registry=registry, workers=0)
    try:
        first = server.handle(dict(request))
        if not first.get("ok") or first.get("cached"):
            raise RuntimeError(f"probe query did not run cold: {first}")
        hit = server.handle(dict(request))
        if not hit.get("cached"):
            raise RuntimeError("probe query did not hit the result cache")
        metrics["serve.server.handle_hit_s"] = mean_seconds(
            lambda: server.handle(dict(request)), 500
        )
    finally:
        server.close()

    decoded = {t: protocol.decode_value(v) for t, v in first["results"].items()}

    def encode() -> bytes:
        stream = io.BytesIO()
        results = {t: protocol.encode_value(v) for t, v in decoded.items()}
        protocol.write_message(stream, dict(first, results=results))
        return stream.getvalue()

    wire = encode()

    def decode() -> None:
        response = protocol.read_message(io.BytesIO(wire))
        for value in response["results"].values():
            protocol.decode_value(value)

    metrics["serve.protocol.encode_s"] = mean_seconds(encode, 2000)
    metrics["serve.protocol.decode_s"] = mean_seconds(decode, 2000)


def probe_fsm(seed: int, metrics) -> None:
    """One frequent-subgraph mining run (the MNI ``aggregate`` path)."""
    base = power_law_cluster(1000, 6, 0.55, seed=inputs.BASE_SEED, name="fsm")
    graph = assign_labels(base, 29, skew=1.1, seed=seed)
    result, metrics["apps.fsm.mine_s"] = timed(mine_frequent_subgraphs, graph, 60)
    metrics["apps.fsm.candidates"] = sum(result.candidates_per_level.values())
