#!/usr/bin/env python
"""CI gate: the hardened daemon survives a chaos storm, end to end.

Boots ``repro serve`` as a real subprocess in chaos mode (a seeded
:class:`~repro.testing.faults.QueryFaultPlan` injecting worker crashes,
hangs, slow responses, corrupted frames and torn sockets), then:

1. drives a burst of mixed queries with a resilient client (seeded
   backoff, idempotency keys) and asserts every *completed* answer is
   identical to the in-process ``repro.run`` oracle — chaos may slow
   queries down or degrade them to partials, but it must never corrupt
   a completed answer;
2. renders ``repro top --once`` against the live daemon (the breaker /
   shed / sentinel panel must not crash mid-storm);
3. sends SIGTERM mid-burst and asserts a clean graceful drain: the
   process exits 0 within the drain deadline, the ``--state`` journal
   is written for warm restart, and the flight recorder is dumped;
4. warm-restarts a second daemon from the journal and asserts a cached
   query replays the pre-restart answer;
5. asserts the two daemon incarnations leave no ``repro-shm-*`` entry
   in ``/dev/shm``: a guard that nothing exports a graph segment again.

The flight dump directory is left behind for the CI job to upload as
an artifact. Exit code is non-zero on the first broken claim.

Usage: python tools/check_serve_chaos.py [--dump-dir DIR] [--seed N]
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path


def boot(extra: list[str]) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--graphs",
            "mico",
            "--serve-workers",
            "2",
            *extra,
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    port = int(proc.stdout.readline())
    return proc, port


def _shm_entries() -> set[str]:
    """The ``repro-shm-*`` names in ``/dev/shm`` (none where it is absent)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro-shm-")}
    except OSError:
        return set()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dump-dir",
        default="serve-chaos-traces",
        help="where the drain dumps flight traces (uploaded as artifact)",
    )
    parser.add_argument("--seed", type=int, default=13, help="chaos seed")
    parser.add_argument(
        "--queries", type=int, default=12, help="first-burst query count"
    )
    args = parser.parse_args()

    import repro
    from repro.serve import Client, ServeRejected, connect

    # Entries an earlier run (or an older build) left behind are not
    # this run's: the claim at the end is about new ones only.
    before = _shm_entries()

    patterns = [repro.Pattern.clique(3), repro.Pattern.path(3)]
    from repro.graph.datasets import load

    graph = load("mico")
    oracle = {p: repro.run(graph, [p]).results[p] for p in patterns}
    print(f"oracle: {[oracle[p] for p in patterns]}")

    state_path = Path(args.dump_dir) / "service-state.jsonl"
    state_path.parent.mkdir(parents=True, exist_ok=True)
    proc, port = boot(
        [
            "--chaos-seed",
            str(args.seed),
            "--chaos-p",
            "0.5",
            "--chaos-queries",
            "64",
            "--wall-budget",
            "1.0",
            "--breaker-threshold",
            "100",  # the breaker suites live in pytest; here it must not gate
            "--drain-deadline",
            "10",
            "--state",
            str(state_path),
            "--dump-dir",
            args.dump_dir,
        ]
    )
    try:
        client = connect(
            port,
            client_id="chaos-gate",
            timeout=60.0,
            retry=repro.RetryPolicy(
                max_retries=4, backoff_seconds=0.02, jitter=0.25, seed=args.seed
            ),
        )

        # -- burst 1: every completed answer must equal the oracle ------
        completed = partial = 0
        for index in range(args.queries):
            pattern = patterns[index % len(patterns)]
            result = client.run(
                "mico", [pattern], chaos_index=index, use_result_cache=False
            )
            if result.partial:
                partial += 1
                assert result.sentinel == "wall-budget", result
                continue
            completed += 1
            assert result.results[pattern] == oracle[pattern], (
                f"query {index} diverged: "
                f"{result.results[pattern]} != {oracle[pattern]}"
            )
        assert completed > 0, "chaos storm completed nothing"
        stats = client.stats()
        replays = stats["metrics"].get("serve.idempotent.replays", 0)
        print(
            f"burst 1: {completed} completed (all == oracle), "
            f"{partial} reaped by sentinels, {replays} idempotent replays"
        )

        # -- live dashboard renders the robustness panel mid-storm ------
        top = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "top",
                str(port),
                "--once",
                "--client",
                "chaos-top",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert top.returncode == 0, top.stderr
        assert "service: accepting" in top.stdout, top.stdout
        print("repro top renders mid-storm (service: accepting)")

        # One cacheable query (no chaos index) so the drain journal has
        # a result entry for the warm-restart leg to replay.
        warm = client.run("mico", [patterns[0]])
        assert warm.results[patterns[0]] == oracle[patterns[0]]

        # -- burst 2 + SIGTERM mid-burst: graceful drain ----------------
        outcomes: list[str] = []
        lock = threading.Lock()

        def late_client(index: int) -> None:
            try:
                late = Client(port=port, client_id=f"late-{index}", timeout=60.0)
                result = late.run(
                    "mico",
                    [patterns[index % len(patterns)]],
                    use_result_cache=False,
                )
                verdict = (
                    "completed"
                    if result.results[patterns[index % len(patterns)]]
                    == oracle[patterns[index % len(patterns)]]
                    else "DIVERGED"
                )
            except ServeRejected as exc:
                verdict = exc.verdict  # rejected:draining expected
            except Exception as exc:  # noqa: BLE001 - categorised below
                verdict = f"transport:{type(exc).__name__}"
            with lock:
                outcomes.append(verdict)

        threads = [
            threading.Thread(target=late_client, args=(i,)) for i in range(6)
        ]
        for thread in threads[:3]:
            thread.start()
        time.sleep(0.05)  # let a few land in the queue / on workers
        proc.send_signal(signal.SIGTERM)
        for thread in threads[3:]:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        proc.wait(timeout=60)
        assert proc.returncode == 0, f"daemon exited {proc.returncode}"
        assert "DIVERGED" not in outcomes, outcomes
        print(f"SIGTERM mid-burst: clean exit 0; late clients: {outcomes}")

        # -- drain artifacts: state journal + flight dump ---------------
        assert state_path.exists(), "drain did not persist --state journal"
        dump_files = list(Path(args.dump_dir).glob("*.json*"))
        assert dump_files, f"drain dumped no flight files in {args.dump_dir}"
        print(
            f"drain artifacts: {state_path.name} + "
            f"{len(dump_files)} flight files"
        )

        # -- warm restart from the journal ------------------------------
        proc2, port2 = boot(["--resume", str(state_path)])
        try:
            client2 = connect(port2, client_id="chaos-resume")
            result = client2.run("mico", [patterns[0]])
            assert result.cached, "warm restart did not replay from journal"
            assert result.results[patterns[0]] == oracle[patterns[0]]
            print("warm restart: journaled answer replayed from cache")
            client2.shutdown()
            proc2.wait(timeout=60)
        finally:
            if proc2.poll() is None:
                proc2.kill()

        # -- no segment from either incarnation -------------------------
        created = sorted(_shm_entries() - before)
        assert not created, f"the daemons created shared-memory segments: {created}"
        print("no repro-shm-* entry in /dev/shm from either daemon")
        print("serve chaos gate: all claims hold")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    sys.exit(main())
