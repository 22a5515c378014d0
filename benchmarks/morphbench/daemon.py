"""The served workloads' daemon: one child process of the benchmark.

``repro serve --graphs <path>`` cannot be used here: the registry loads
edge lists without labels. This builds the seeded labeled graph itself,
registers it (which exports the shared-memory segment), starts a
:class:`MiningServer` and hands the bound port to the parent as one
JSON line on stdout — the parent blocks in ``readline``, nobody polls.

SIGTERM closes the server; the ``finally`` then checks that no
shared-memory segment outlived it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--vertices", type=int, default=None)
    parser.add_argument(
        "--cpu", type=int, default=None, help="pin the daemon to this CPU"
    )
    args = parser.parse_args(argv)

    from repro.engines.execution import assert_no_leaked_segments
    from repro.serve import GraphRegistry, MiningServer

    from benchmarks.morphbench.inputs import build_graph

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    # A parent that dies without signalling closes our stdin: stop then too.
    threading.Thread(
        target=lambda: (sys.stdin.read(), stop.set()), daemon=True
    ).start()

    graph = build_graph(args.workload, args.seed, args.vertices)
    registry = GraphRegistry()
    try:
        registry.add("g", graph)
        server = MiningServer(registry=registry, workers=2)
        _host, port = server.start()
        try:
            print(json.dumps({"port": port}), flush=True)
            stop.wait()
        finally:
            server.close()
    finally:
        registry.close()
        assert_no_leaked_segments()
    return 0


if __name__ == "__main__":
    sys.exit(main())
