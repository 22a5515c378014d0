#!/usr/bin/env python
"""Compare what a served query leaves behind between two source trees.

Replays one scripted sequence of ``run`` requests against a
``MiningServer`` built from each tree, in two modes: dict-level
``handle()`` on a server with ``workers=0``, and a started server with
``workers=1`` answering over a socket. After every request it records
the response, every counter of the server's metrics registry and every
histogram's sample count, then reports each difference between the two
trees.

The sequence sends a miss, a hit, an idempotent call and its replay,
bad options, a deadline refused at admission, a deadline refused after
the query queued, an unknown graph, no patterns, a request to an open
circuit breaker and one to a draining server. The clock is a fake one
the script moves, so refusals and ``retry_after_s`` hints repeat
exactly. What cannot repeat is left out of the comparison: ``query_id``
values (their presence is compared), the values under ``seconds`` in
an answer and of counters named ``*.seconds`` (their keys are
compared), and the flight recorder's slowness verdict, which is turned
off (``slow_factor`` is huge) because it compares wall time.

Usage::

    python tools/compare_serve_observables.py BASE_SRC [CHANGE_SRC]

``BASE_SRC`` and ``CHANGE_SRC`` (default: this checkout's ``src``) are
directories that hold the ``repro`` package. Exit status 0 when nothing
differs but ``query_id`` presence.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

TRIANGLE = "(v0, v1, v2) v0-v1, v0-v2, v1-v2"
WEDGE = "(v0, v1, v2) v0-v1, v1-v2"


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _steps():
    """``(name, request, clock jump before admission, after it, setup)``."""
    run = lambda **fields: {"op": "run", "graph": "small", "patterns": [TRIANGLE], **fields}
    uncached = {"options": {"deadline_seconds": 5.0}, "use_result_cache": False}
    trip = lambda server: server.breakers.get("small", "peregrine").record_failure()
    drain = lambda server: server.scheduler.set_draining(True)
    return [
        ("miss", run(), 0, 0, None),
        ("hit", run(), 0, 0, None),
        ("idempotent", run(patterns=[WEDGE], idempotency_key="k1"), 0, 0, None),
        ("replay", run(patterns=[WEDGE], idempotency_key="k1"), 0, 0, None),
        ("bad-options", run(options={"bogus": 1}), 0, 0, None),
        ("deadline-at-admission", run(**uncached), 10, 0, None),
        ("deadline-in-queue", run(**uncached), 0, 10, None),
        ("unknown-graph", run(graph="no-such-graph"), 0, 0, None),
        ("no-patterns", run(patterns=[]), 0, 0, None),
        ("circuit-open", run(), 0, 0, trip),
        ("draining", run(), 0, 0, drain),
    ]


def _observe(server) -> dict:
    counters = {}
    for name, value in server.metrics.snapshot().items():
        counters[name] = "<seconds>" if name.endswith("seconds") else value
    histograms = {
        name: summary["count"]
        for name, summary in server.metrics.histogram_snapshots().items()
    }
    return {"counters": counters, "histograms": histograms}


def _normalise(response: dict) -> dict:
    out = dict(response)
    if "query_id" in out:
        out["query_id"] = "<query_id>"
    if isinstance(out.get("seconds"), dict):
        out["seconds"] = sorted(out["seconds"])
    return out


def emit(mode: str) -> list[dict]:
    """Run the sequence in this interpreter; one row per step."""
    from repro.graph.generators import power_law_cluster
    from repro.serve import GraphRegistry, MiningServer

    registry = GraphRegistry()
    registry.add("small", power_law_cluster(25, 3, 0.5, seed=5, name="small"))
    clock = FakeClock()
    server = MiningServer(
        registry=registry,
        workers=0 if mode == "dict" else 1,
        clock=clock,
        breaker_threshold=1,
        breaker_reset_s=60.0,
        slow_factor=1e12,
        sample_interval=0,
    )
    jump = {"before": 0.0, "after": 0.0}
    admit = server.scheduler.policy.admit

    def jumping_admit(query, queue_depth, client_inflight):
        clock.now += jump["before"]
        verdict = admit(query, queue_depth, client_inflight)
        clock.now += jump["after"]
        return verdict

    server.scheduler.policy.admit = jumping_admit
    stream = None
    if mode == "socket":
        server.start()
        stream = socket.create_connection((server.host, server.port)).makefile("rwb")
    rows = []
    try:
        for name, request, before, after, setup in _steps():
            if setup is not None:
                setup(server)
            jump["before"], jump["after"] = before, after
            if stream is None:
                response = server.handle(dict(request))
            else:
                stream.write(json.dumps(request).encode() + b"\n")
                stream.flush()
                response = json.loads(stream.readline())
            jump["before"] = jump["after"] = 0.0
            rows.append({"step": name, "response": response, **_observe(server)})
    finally:
        if stream is not None:
            stream.close()
        server.close()
    return rows


def _run_tree(src: Path, mode: str) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, __file__, "--emit", mode],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def _diff(base, change, path="") -> list[str]:
    if isinstance(base, dict) and isinstance(change, dict):
        out = []
        for key in sorted(set(base) | set(change)):
            where = f"{path}.{key}" if path else str(key)
            if key not in base:
                out.append(f"{where}: only in change ({change[key]!r})")
            elif key not in change:
                out.append(f"{where}: only in base ({base[key]!r})")
            else:
                out.extend(_diff(base[key], change[key], where))
        return out
    return [] if base == change else [f"{path}: {base!r} -> {change!r}"]


def compare(base_src: Path, change_src: Path) -> int:
    unexpected = 0
    for mode in ("dict", "socket"):
        base, change = _run_tree(base_src, mode), _run_tree(change_src, mode)
        label = "workers=0, handle()" if mode == "dict" else "workers=1, started, socket"
        print(f"== {label}")
        for old, new in zip(base, change, strict=True):
            notes = []
            for part in ("counters", "histograms"):
                notes += [f"{part} {d}" for d in _diff(old[part], new[part])]
            responses = _diff(_normalise(old["response"]), _normalise(new["response"]))
            allowed = [d for d in responses if d.startswith("query_id: only in change")]
            unexpected += len(notes) + len(responses) - len(allowed)
            verdict = "same" if not notes and not responses else "DIFFERS"
            if notes == [] and responses == allowed and allowed:
                verdict = "same but query_id (an admit-stage failure now carries one)"
            print(
                f"  {old['step']:22s} {verdict}; {len(new['counters'])} counters, "
                f"{sum(new['histograms'].values())} histogram samples"
            )
            for note in notes + [d for d in responses if d not in allowed]:
                print(f"      {note}")
    print("no unexpected difference" if not unexpected else f"{unexpected} differences")
    return 1 if unexpected else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--emit"]:
        json.dump(emit(argv[1]), sys.stdout)
        return 0
    if not argv or len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    change = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    return compare(Path(argv[0]).resolve(), change.resolve())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
