"""The worker child: the process that runs mining code in-process.

The benchmark never imports ``repro`` where it measures; it spawns this
module so every set-up pays the real import, builds the seeded graph and
runs one full warm-up op, then announces ``ready`` on stdout. After that
it serves one-line JSON commands from stdin (``run``, ``oracle``,
``layers``) and exits when stdin closes.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import repro
from repro.engines.peregrine.engine import PeregrineEngine
from repro.morph.session import MorphingSession

from benchmarks.morphbench import inputs
from benchmarks.morphbench.harness import vm_hwm_kib
from benchmarks.morphbench.spans import SpanLog

#: The oracle path: no morphing (claim C1's baseline), and the batched
#: frontier kernels instead of the per-root ones the workloads time — so
#: an answer is checked against code that shares neither the morphing
#: algebra nor the matching kernel with what produced it.
ORACLE_OPTIONS = repro.RunOptions(morph=False, batch_roots=2048)


#: Name of the span around one in-process op's call into the program.
CALL_SPAN = {"mc4-count": "morph.run", "enum-stream": "morph.run_streaming"}


def stream_digest(patterns):
    """A ``process`` callback that counts matches and XORs a position-
    sensitive hash of each (order of arrival does not matter), and the
    function that reads the totals back as ``[[count, xor], ...]``."""
    index = {pattern: i for i, pattern in enumerate(patterns)}
    counts = [0] * len(patterns)
    sums = [0] * len(patterns)

    def process(pattern, match):
        i = index[pattern]
        a, b, c, d = match
        counts[i] += 1
        sums[i] ^= a + 1009 * b + 1000003 * c + 1000000007 * d

    return process, lambda: [[counts[i], int(sums[i])] for i in range(len(patterns))]


def run_op(workload, graph, patterns, options=None):
    """One in-process op: ``(result, answer)``.

    ``options=None`` is the timed configuration — ``RunOptions()``
    defaults (auto strategy, count, serial) and a fresh session.
    """
    if workload == "enum-stream":
        process, answer = stream_digest(patterns)
        session = MorphingSession(PeregrineEngine(), options=options)
        result = session.run_streaming(graph, patterns, process)
        return result, answer()
    result = repro.run(graph, patterns, options=options)
    return result, [int(result.results[p]) for p in patterns]


def phases_of(result) -> dict[str, float]:
    """The public per-phase seconds of a run result, in pipeline order."""
    return {
        "morph.transform": result.transform_seconds,
        "morph.match": result.match_seconds,
        "morph.convert": result.convert_seconds,
        "morph.executor": result.executor_seconds,
    }


def command_run(workload, graph, request) -> dict:
    """Time ``ops`` identical ops; with ``trace`` also record spans."""
    patterns = inputs.op_patterns(workload)
    spans = SpanLog() if request.get("trace") else None
    seconds, answers, stats = [], [], None
    gc.collect()
    window_start = time.perf_counter()
    for op in range(request["ops"]):
        start = time.perf_counter()
        if spans is None:
            result, answer = run_op(workload, graph, patterns)
        else:
            with spans.span("op", op=op):
                with spans.span(CALL_SPAN[workload]) as call:
                    result, answer = run_op(workload, graph, patterns)
                spans.add_phases(call, phases_of(result))
        seconds.append(time.perf_counter() - start)
        answers.append(answer)
        stats = result.stats
    window_s = time.perf_counter() - window_start
    return {
        "op_seconds": seconds,
        "window_s": window_s,
        "answers": answers,
        "vm_hwm_kib": vm_hwm_kib(),
        "spans": spans.spans if spans is not None else None,
        "op_stats": {
            "engines.matches": stats.matches,
            "engines.setops.intersections": stats.setops.intersections,
            "engines.setops.elements_scanned": stats.setops.elements_scanned,
        },
    }


def command_oracle(workload, graph, request) -> dict:
    """Answers of the baseline path, untimed.

    In-process workloads: the answer every op must give. Served ones:
    the count of each query text in ``request["queries"]``.
    """
    if workload in inputs.IN_PROCESS:
        _result, answer = run_op(
            workload, graph, inputs.op_patterns(workload), ORACLE_OPTIONS
        )
        return {"answer": answer}
    texts = request["queries"]
    queries = [repro.parse_pattern(text) for text in texts]
    result = repro.run(graph, queries, options=ORACLE_OPTIONS)
    return {"answers": {t: int(result.results[q]) for t, q in zip(texts, queries)}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--vertices", type=int, default=None)
    parser.add_argument(
        "--no-warmup",
        action="store_true",
        help="skip the warm-up op (oracle and layer-probe children)",
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()
    graph = inputs.build_graph(args.workload, args.seed, args.vertices)
    build_s = time.perf_counter() - start
    if not args.no_warmup and args.workload in inputs.IN_PROCESS:
        run_op(args.workload, graph, inputs.op_patterns(args.workload))
    print(json.dumps({"ready": True, "build_s": build_s}), flush=True)

    for line in sys.stdin:
        request = json.loads(line)
        command = request["cmd"]
        if command == "run":
            reply = command_run(args.workload, graph, request)
        elif command == "oracle":
            reply = command_oracle(args.workload, graph, request)
        elif command == "layers":
            from benchmarks.morphbench import layers

            reply = layers.probe(args.workload, graph, build_s, args.seed, request)
        else:
            raise ValueError(f"unknown command {command!r}")
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
