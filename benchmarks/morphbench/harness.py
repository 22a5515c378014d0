"""Set-up, the timed window and tear-down of one pass over a workload.

A *pass* is: set the workload up (``setups`` times, timing each, keeping
the last), run its fixed op list once while timing every op, read the
peak memory of the process that mined, and hand back what is needed to
verify the answers. ``run.py`` makes one untraced pass for the
end-to-end metrics; the traced run makes further, shorter passes.

Noise hardening lives here: children start with ``PYTHONHASHSEED=0``
(dict and set layouts repeat), the window opens after ``gc.collect()``,
the daemon's port arrives through a blocking ``readline``, and every
child is stopped — and waited for — in a ``finally``.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import repro
from repro.core.parser import format_pattern

from benchmarks.morphbench import inputs
from benchmarks.morphbench.spans import SpanLog

ROOT = Path(__file__).resolve().parents[2]
#: Seconds a stopped child gets to exit before it is killed.
STOP_TIMEOUT = 20


@contextmanager
def client_and_daemon_cpus() -> Iterator[int | None]:
    """Give a served pass's two processes a CPU each.

    Pins the calling (client) process to its first allowed CPU for the
    duration and yields the last one for the daemon, so the two never
    migrate mid-window or share a core; on this box that cut the run-to-
    run spread of ``serve-*`` by a third. In-process workloads are left
    to the scheduler: pinning a lone worker measured no steadier.
    Yields ``None`` (and pins nothing) on one CPU or where the call is
    refused.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            raise OSError("one CPU")
        os.sched_setaffinity(0, {cpus[0]})
    except (AttributeError, OSError):
        yield None
        return
    try:
        yield cpus[-1]
    finally:
        os.sched_setaffinity(0, cpus)


def vm_hwm_kib(pid: str | int = "self") -> int:
    """Peak resident set (``VmHWM``) of a process, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM not found in /proc status")


class ChildFailed(RuntimeError):
    """A child process died or broke the line protocol."""


class Child:
    """A ``python -m <module>`` child speaking JSON lines on its pipes."""

    def __init__(self, module: str, *args: object) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}{ROOT}"
        env["PYTHONHASHSEED"] = "0"
        self.module = module
        self.proc = subprocess.Popen(
            [sys.executable, "-m", module, *map(str, args)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read(self) -> dict:
        """The child's next line (blocks; no polling)."""
        line = self.proc.stdout.readline()
        if not line:
            raise ChildFailed(
                f"{self.module} exited with code {self.proc.wait()} "
                "before answering"
            )
        return json.loads(line)

    def ask(self, **request: object) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def stop(self, sigterm: bool = False) -> None:
        """End the child and wait for it; a non-zero exit is an error.

        Workers leave when stdin closes. The daemon is sent SIGTERM —
        its handler closes the server and then asserts that no
        shared-memory segment leaked, which is what a non-zero exit
        code here reports.
        """
        if self.proc.poll() is None:
            if sigterm:
                self.proc.send_signal(signal.SIGTERM)
            self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ChildFailed(f"{self.module} ignored the request to stop")
        finally:
            self.proc.stdout.close()
        if code != 0:
            raise ChildFailed(f"{self.module} exited with code {code}")

    def kill(self) -> None:
        """Last resort for error paths: never leave a child behind."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


def ask_worker(workload: str, seed: int, vertices: int | None, **request) -> dict:
    """One command to a fresh worker child that skips the warm-up op
    (the oracle and the layer probes run outside any timed window)."""
    child = Child(
        "benchmarks.morphbench.worker",
        *worker_args(workload, seed, vertices),
        "--no-warmup",
    )
    try:
        child.read()
        reply = child.ask(**request)
        child.stop()
        return reply
    finally:
        child.kill()


@dataclass
class PassResult:
    """What one pass measured, before it is turned into metrics."""

    setup_seconds: list[float]
    op_seconds: list[float]
    window_s: float
    vm_hwm_kib: int
    #: Per-op answers (in-process) or ``(query text, outcome)`` pairs
    #: (served; the outcome is a ``ServeResult`` or the exception).
    answers: list
    spans: SpanLog | None = None
    #: Layer numbers this pass yields as a by-product (traced runs).
    layer: dict[str, float] = field(default_factory=dict)
    #: In-process passes: the still-running worker's oracle answer,
    #: filled by :func:`in_process_pass` when ``want_oracle`` is set.
    oracle_answer: list | None = None


def worker_args(workload: str, seed: int, vertices: int | None) -> list[object]:
    args: list[object] = ["--workload", workload, "--seed", seed]
    if vertices is not None:
        args += ["--vertices", vertices]
    return args


def in_process_pass(
    workload: str,
    seed: int,
    ops: int,
    *,
    setups: int = 1,
    trace: bool = False,
    want_oracle: bool = False,
    vertices: int | None = None,
) -> PassResult:
    """Run an in-process workload in a fresh worker child.

    One set-up is: spawn the child, which imports ``repro``, builds the
    graph and runs a full warm-up op, until its ``ready`` line arrives.
    """
    setup_seconds = []
    with ExitStack() as stack:
        for index in range(setups):
            start = time.perf_counter()
            child = Child(
                "benchmarks.morphbench.worker",
                *worker_args(workload, seed, vertices),
            )
            stack.callback(child.kill)
            child.read()
            setup_seconds.append(time.perf_counter() - start)
            if index < setups - 1:
                child.stop()
        reply = child.ask(cmd="run", ops=ops, trace=trace)
        oracle = child.ask(cmd="oracle")["answer"] if want_oracle else None
        child.stop()
    spans = None
    if trace:
        spans = SpanLog()
        spans.extend(reply["spans"])
    return PassResult(
        setup_seconds=setup_seconds,
        op_seconds=reply["op_seconds"],
        window_s=reply["window_s"],
        vm_hwm_kib=reply["vm_hwm_kib"],
        answers=reply["answers"],
        spans=spans,
        layer=reply["op_stats"],
        oracle_answer=oracle,
    )


def closed_loop(client, ops, spans: SpanLog | None, out: list) -> None:
    """One connection's closed loop over ``(op id, query)`` pairs: the
    next query leaves only after the previous answer arrived. Appends
    ``(op id, seconds, outcome)``."""
    for op, query in ops:
        start = time.perf_counter()
        try:
            if spans is None:
                outcome = client.run("g", query)
            else:
                with spans.span("op", op=op):
                    with spans.span("serve.client.run") as call:
                        outcome = client.run("g", query)
                    if not outcome.cached:
                        # A cached answer replays the seconds of the run
                        # that produced it; nothing ran for this op.
                        seconds = outcome.seconds
                        spans.add_phases(
                            call,
                            {
                                "serve.server.plan": seconds.get("transform", 0.0),
                                "serve.server.match": seconds.get("match", 0.0),
                                "serve.server.convert": seconds.get("convert", 0.0),
                            },
                        )
        except (RuntimeError, OSError, ValueError) as exc:
            # Rejections, server-side errors, torn sockets, bad frames:
            # a failed op, counted — never a timing.
            outcome = exc
        out.append((op, time.perf_counter() - start, outcome))


def served_pass(
    workload: str,
    seed: int,
    ops: int,
    *,
    setups: int = 1,
    trace: bool = False,
    vertices: int | None = None,
) -> PassResult:
    """Run a served workload against a fresh daemon child.

    One set-up is: spawn the daemon (import, build the labeled graph,
    export it to shared memory, start the server), read its port,
    connect, and run the warm-up queries.
    """
    warm, timed = inputs.served_queries(workload, seed, ops)
    connections = inputs.HIT_CONNECTIONS if workload == "serve-hit" else 1
    setup_seconds = []
    with ExitStack() as stack:
        daemon_cpu = stack.enter_context(client_and_daemon_cpus())
        cpu_args = [] if daemon_cpu is None else ["--cpu", daemon_cpu]
        for index in range(setups):
            start = time.perf_counter()
            daemon = Child(
                "benchmarks.morphbench.daemon",
                *worker_args(workload, seed, vertices),
                *cpu_args,
            )
            stack.callback(daemon.kill)
            info = daemon.read()
            client = repro.connect(info["port"])
            ran = [client.run("g", query) for query in warm]
            setup_seconds.append(time.perf_counter() - start)
            if index < setups - 1:
                daemon.stop(sigterm=True)

        layer: dict[str, float] = {}
        before = client.stats() if trace else None
        clients = [repro.connect(info["port"]) for _ in range(connections)]
        logs = [SpanLog() if trace else None for _ in clients]
        outs: list[list] = [[] for _ in clients]
        numbered = list(enumerate(timed))
        threads = [
            threading.Thread(
                target=closed_loop,
                args=(clients[i], numbered[i::connections], logs[i], outs[i]),
            )
            for i in range(connections)
        ]
        gc.collect()
        window_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window_s = time.perf_counter() - window_start
        peak = vm_hwm_kib(daemon.pid)
        if trace:
            ran += [
                outcome
                for out in outs
                for _op, _seconds, outcome in out
                if not isinstance(outcome, Exception) and not outcome.cached
            ]
            layer.update(served_layer_metrics(client, before, ran))
        daemon.stop(sigterm=True)

    spans = None
    if trace:
        spans = SpanLog()
        for log in logs:
            spans.extend(log.spans)
    records = sorted(record for out in outs for record in out)
    if len(records) != len(timed):
        raise RuntimeError(
            f"a client thread died: {len(records)} of {len(timed)} ops recorded"
        )
    return PassResult(
        setup_seconds=setup_seconds,
        op_seconds=[seconds for _op, seconds, _outcome in records],
        window_s=window_s,
        vm_hwm_kib=peak,
        answers=[
            (format_pattern(timed[op]), outcome) for op, _seconds, outcome in records
        ],
        spans=spans,
        layer=layer,
    )


def served_layer_metrics(client, before: dict, ran: list) -> dict[str, float]:
    """Server-side layer numbers, read once after the window.

    Queue wait and total come from the daemon's own histograms (whole
    life of the daemon, so they include the few warm-up queries). Plan
    and match seconds are medians over ``ran`` — the answers of the
    queries that actually ran (warm-up and timed, not cache hits), which
    carry the server's own per-query seconds. The hit ratio is the
    *difference* of the result-cache counters across the window, so it
    is exactly 0 or 1 when every op missed or hit.
    """
    start = time.perf_counter()
    client.ping()
    ping_rtt = time.perf_counter() - start
    after = client.stats()

    def p50(name: str) -> float:
        return float(after["histograms"][name]["p50"])

    def gained(name: str) -> float:
        return float(after["metrics"].get(name, 0) - before["metrics"].get(name, 0))

    hits = gained("serve.result_cache.hits")
    misses = gained("serve.result_cache.misses")
    return {
        "serve.client.ping_rtt_s": ping_rtt,
        "serve.scheduler.queue_wait_s_p50": p50("serve.latency.queue_wait"),
        "serve.server.total_s_p50": p50("serve.latency.total"),
        "serve.server.plan_s_p50": statistics.median(
            outcome.seconds["transform"] for outcome in ran
        ),
        "serve.server.match_s_p50": statistics.median(
            outcome.seconds["match"] for outcome in ran
        ),
        "serve.server.result_cache_hit_ratio": hits / max(1.0, hits + misses),
    }


def run_pass(workload: str, seed: int, ops: int, **options) -> PassResult:
    """Dispatch on the workload kind."""
    if workload in inputs.IN_PROCESS:
        return in_process_pass(workload, seed, ops, **options)
    return served_pass(workload, seed, ops, **options)
