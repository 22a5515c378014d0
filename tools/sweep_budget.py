#!/usr/bin/env python
"""Sweep the frontier kernel's element budget and check every answer.

``repro.engines.frontier.FRONTIER_ELEMENT_BUDGET`` is one module
constant, and this tool sets it the way ``tests/conftest.py
--frontier-budget`` does, by patching the module attribute. It adds no
option to the package. Each budget is measured in fresh child
processes, each pinned to one CPU:

* **timing**: ``repro.run(g, motif_patterns(k))`` on morphbench's
  ``mc4-count`` graph (seed 1) at several sizes, ``strategy="auto"``
  and ``"direct"``. A row reads the median wall time of repeated runs.
  The 900-vertex 4-motif count also reports its set-op counters:
  ``elements_scanned``, ``intersections`` and ``batched`` passes.
* **transient peak**: the ``tracemalloc`` peak of the 4-motif count
  that ``tests/test_frontier.py::TestElementBudget::
  test_peak_memory_does_not_grow_with_the_graph`` pins, on its 900-
  and 3,000-vertex graphs.
* **daemon RSS**: ``VmHWM`` of a process that serves morphbench's
  ``serve-cold`` graph (seed 1) from a started ``MiningServer`` after
  several connections have each run distinct cold labeled queries. A
  connection thread that has run a query keeps its own malloc arena,
  so the heap a wider segment needs is paid once per connection.

Every budget must give the same answer to every query, in process and
served; the tool exits 1 when any differs. It gates no timing.

Usage::

    python tools/sweep_budget.py                     # 4k, 8k, 16k, 32k
    python tools/sweep_budget.py --budgets 4096,8192
    python tools/sweep_budget.py --quick             # small graphs, two budgets

``--quick`` runs small graphs at the shipped budget and half of it: a
counts-identical check that finishes in well under a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: ``(label, motif size, vertices, strategy)`` of each timed row.
ROWS = (
    ("4-MC 900 auto", 4, 900, "auto"),
    ("4-MC 6,000 auto", 4, 6000, "auto"),
    ("4-MC 6,000 direct", 4, 6000, "direct"),
    ("4-MC 20,000 auto", 4, 20000, "auto"),
    ("5-MC 900 auto", 5, 900, "auto"),
)
QUICK_ROWS = (
    ("4-MC 300 auto", 4, 300, "auto"),
    ("4-MC 300 direct", 4, 300, "direct"),
    ("5-MC 300 auto", 5, 300, "auto"),
)
#: ``(vertices, attachments)`` of the peak-memory test's two graphs.
PEAK_GRAPHS = ((900, 6), (3000, 3))
QUICK_PEAK_GRAPHS = ((300, 6), (1000, 3))
#: Wall seconds each timed row aims at, per budget; runs stay in 3..40.
ROW_SECONDS = 2.0
#: Connections of the daemon probe, each running its own cold queries.
CONNECTIONS = 4
QUERIES_PER_CONNECTION = 12


def _patch(budget: int) -> None:
    from repro.engines import frontier

    frontier.FRONTIER_ELEMENT_BUDGET = budget


def _answers(results) -> dict[str, object]:
    return {str(pattern): repr(value) for pattern, value in results.items()}


def _timing(quick: bool) -> dict:
    """Timed rows, the set-op counters of the first row and the peaks."""
    import tracemalloc

    import repro
    from repro.core.atlas import motif_patterns
    from repro.graph.generators import power_law_cluster

    from benchmarks.morphbench.inputs import build_graph

    rows, answers, counters = {}, {}, None
    for label, size, vertices, strategy in QUICK_ROWS if quick else ROWS:
        graph = build_graph("mc4-count", 1, vertices=vertices)
        motifs = list(motif_patterns(size))
        options = repro.RunOptions(strategy=strategy)
        result = repro.run(graph, motifs, options=options)  # builds lazy state
        answers[label] = _answers(result.results)
        if counters is None:
            setops = result.stats.setops
            counters = {
                "elements_scanned": setops.elements_scanned,
                "intersections": setops.intersections,
                "differences": setops.differences,
                "batched": setops.batched,
            }
        start = time.perf_counter()
        repro.run(graph, motifs, options=options)
        first = time.perf_counter() - start
        times = [first]
        for _ in range(max(3, min(40, int(ROW_SECONDS / max(first, 1e-6)))) - 1):
            start = time.perf_counter()
            repro.run(graph, motifs, options=options)
            times.append(time.perf_counter() - start)
        rows[label] = statistics.median(times)

    peaks = {}
    motifs = list(motif_patterns(4))
    options = repro.RunOptions(strategy="direct")
    for vertices, attach in QUICK_PEAK_GRAPHS if quick else PEAK_GRAPHS:
        graph = power_law_cluster(vertices, attach, 0.5, seed=1)
        ordered = graph.degree_ordered
        ordered.adjacency_keys, ordered.adjacency_filter
        tracemalloc.start()
        try:
            result = repro.run(graph, motifs, options=options)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks[str(vertices)] = peak
        answers[f"peak graph {vertices}"] = _answers(result.results)
    return {"rows": rows, "counters": counters, "peaks": peaks, "answers": answers}


def _daemon(quick: bool) -> dict:
    """Peak RSS of a started daemon after every connection ran queries."""
    from repro.serve import Client, GraphRegistry, MiningServer

    from benchmarks.morphbench.harness import vm_hwm_kib
    from benchmarks.morphbench.inputs import build_graph, labeled_queries, quick_vertices

    per_connection = 4 if quick else QUERIES_PER_CONNECTION
    vertices = quick_vertices("serve-cold") if quick else None
    queries = labeled_queries(CONNECTIONS * per_connection)
    graph = build_graph("serve-cold", 1, vertices=vertices)
    registry = GraphRegistry()
    answers: dict[str, object] = {}
    try:
        registry.add("g", graph)
        server = MiningServer(registry=registry, workers=2)
        _host, port = server.start()
        try:
            client = Client(port=port, client_id="sweep")
            done = threading.Event()
            failures: list[BaseException] = []

            def connection(batch, finished: threading.Event) -> None:
                # The thread keeps its connection open until every
                # batch ran, so each server connection thread stays
                # alive, holding whatever arena it allocated from.
                try:
                    for query in batch:
                        answers[str(query)] = repr(client.run("g", [query]).results[query])
                except BaseException as error:  # reported by the caller
                    failures.append(error)
                finished.set()
                done.wait()

            threads = []
            for i in range(CONNECTIONS):
                finished = threading.Event()
                batch = queries[i * per_connection : (i + 1) * per_connection]
                thread = threading.Thread(target=connection, args=(batch, finished))
                thread.start()
                threads.append(thread)
                finished.wait()
            rss = vm_hwm_kib() / 1024
            done.set()
            for thread in threads:
                thread.join()
            if failures:
                raise failures[0]
        finally:
            server.close()
    finally:
        registry.close()
    return {"rss_mib": rss, "answers": {"served": answers}}


def _child(args) -> int:
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    _patch(args.budget)
    measure = _timing if args.child == "timing" else _daemon
    print(json.dumps(measure(args.quick)))
    return 0


def _run_child(kind: str, budget: int, quick: bool) -> dict:
    command = [sys.executable, __file__, "--child", kind, "--budget", str(budget)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _kib(budget: int) -> str:
    return f"{budget // 1024} k" if budget >= 1024 else str(budget)


def _report(sweep: dict[int, dict], quick: bool) -> None:
    rows = [label for label, *_ in (QUICK_ROWS if quick else ROWS)]
    peaks = [str(v) for v, _ in (QUICK_PEAK_GRAPHS if quick else PEAK_GRAPHS)]
    header = ["budget", *rows, "transient peak " + " / ".join(peaks), "daemon RSS"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for budget, reading in sweep.items():
        cells = [_kib(budget)]
        cells += [f"{reading['rows'][label] * 1e3:.2f} ms" for label in rows]
        cells.append(
            " / ".join(f"{reading['peaks'][v] / 2**20:.2f}" for v in peaks) + " MiB"
        )
        cells.append(f"{reading['rss_mib']:.1f} MiB")
        print("| " + " | ".join(cells) + " |")
    print()
    print(f"set-op counters of {rows[0]}:")
    for budget, reading in sweep.items():
        counters = ", ".join(f"{k} {v:,}" for k, v in reading["counters"].items())
        print(f"  {_kib(budget)}: {counters}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--budgets",
        default=None,
        help="comma-separated element budgets (default 4096,8192,16384,32768)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graphs at the shipped budget and half of it",
    )
    parser.add_argument("--child", choices=("timing", "daemon"), help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)

    if args.budgets:
        budgets = [int(b) for b in args.budgets.split(",")]
    elif args.quick:
        sys.path[0:0] = [str(ROOT / "src")]
        from repro.engines.frontier import FRONTIER_ELEMENT_BUDGET

        budgets = [FRONTIER_ELEMENT_BUDGET // 2, FRONTIER_ELEMENT_BUDGET]
    else:
        budgets = [1 << 12, 1 << 13, 1 << 14, 1 << 15]

    sweep: dict[int, dict] = {}
    for budget in budgets:
        reading = _run_child("timing", budget, args.quick)
        served = _run_child("daemon", budget, args.quick)
        reading["rss_mib"] = served["rss_mib"]
        reading["answers"].update(served["answers"])
        sweep[budget] = reading
        print(f"budget {budget}: measured", file=sys.stderr)

    _report(sweep, args.quick)

    reference_budget, reference = next(iter(sweep.items()))
    differing = [
        (budget, query)
        for budget, reading in sweep.items()
        for query, answers in reference["answers"].items()
        if reading["answers"].get(query) != answers
    ]
    if differing:
        for budget, query in differing:
            print(
                f"DIFFERENT: {query!r} at budget {budget} vs {reference_budget}",
                file=sys.stderr,
            )
        return 1
    print(f"identical answers at every budget ({len(reference['answers'])} query sets)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
