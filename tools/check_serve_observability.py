#!/usr/bin/env python
"""CI gate: the daemon's observability surface, end to end.

Boots ``repro serve`` as a real subprocess with an aggressive
``--slow-factor`` (so real queries trip the cost-model slowness
classifier), drives 20 mixed queries over the socket — two engines,
several patterns, cache-bypassing repeats, warm cache hits and one
guaranteed failure — then asserts the whole observability contract:

* every response (success, cached, failed) carries a unique ``query_id``;
* the ``stats`` snapshot passes :func:`repro.serve.validate_stats` and
  its latency/stage histograms actually accumulated the traffic;
* the queue window reports samples (the background depth sampler ran);
* the flight recorder retained slow queries *and* the failed query;
* the ``dump`` op writes loadable trace JSONL + Chrome JSON whose spans
  carry the originating ``query_id`` (worker spans included);
* ``repro top --once`` renders a frame against the live daemon, and its
  query count is the number of answered queries, cache hits included.

The dump directory is left behind for the CI job to upload as an
artifact. Exit code is non-zero on the first broken claim.

Usage: python tools/check_serve_observability.py [--dump-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dump-dir",
        default="serve-observability-traces",
        help="where to dump flight-recorder traces (uploaded as artifact)",
    )
    parser.add_argument(
        "--queries", type=int, default=20, help="mixed queries to drive"
    )
    args = parser.parse_args()

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
            "--slow-factor",
            "1e-9",
            "--dump-dir",
            args.dump_dir,
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = int(proc.stdout.readline())
        import repro
        from repro.observe import load_trace
        from repro.serve import connect, validate_stats

        client = repro.connect(port=port, client_id="ci-observability")

        patterns = [
            repro.Pattern.clique(3),
            repro.Pattern.path(3),
            repro.Pattern.star(3),
        ]
        engines = ("peregrine", "graphpi")
        ids: list[str] = []
        ok = cached = failed = 0
        for i in range(args.queries):
            pattern = patterns[i % len(patterns)]
            engine = engines[i % len(engines)]
            # Every 5th query repeats the previous request verbatim so
            # the result cache serves it; every 7th bypasses the cache.
            use_cache = i % 7 != 0
            out = client.run(
                "mico",
                [pattern],
                options=repro.RunOptions(engine=engine),
                use_result_cache=use_cache,
            )
            assert out.query_id, f"query {i} came back without a query_id"
            ids.append(out.query_id)
            ok += 1
            cached += bool(out.cached)
        assert len(set(ids)) == len(ids), "query_ids are not unique"
        print(f"drove {ok} queries ({cached} cache hits), ids all unique")

        # One guaranteed failure: a graph the daemon does not have.
        try:
            client.run("no-such-graph", [patterns[0]])
        except Exception as exc:
            failed += 1
            print(f"expected failure recorded: {type(exc).__name__}")
        assert failed == 1, "the bad-graph query should have failed"

        stats = validate_stats(client.stats())
        total = stats["histograms"]["serve.latency.total"]
        assert total["count"] >= args.queries, total
        assert 0 < total["p50"] <= total["p99"] <= total["max"], total
        for engine in engines:
            name = f"serve.stage.match.{engine}"
            assert name in stats["histograms"], f"missing histogram {name}"
        assert stats["queue"]["samples"] > 0, stats["queue"]
        assert stats["uptime_seconds"] > 0, stats
        flight = stats["flight"]
        # slow_factor=1e-9 makes every mined (non-cached) query "slow".
        assert flight["anomalies"] > 0, flight
        anomalies = flight["recent_anomalies"]
        assert any(a.get("slow") for a in anomalies), anomalies
        assert any(a.get("status") == "error" for a in anomalies), anomalies
        hits = stats["metrics"].get("serve.result_cache.hits", 0)
        assert hits == cached, (hits, cached)
        print(
            f"stats schema v{stats['schema_version']} valid: "
            f"p50={total['p50']:.4f}s p99={total['p99']:.4f}s "
            f"{flight['anomalies']} anomalies ({len(anomalies)} described)"
        )

        dump = client.dump(args.dump_dir)
        files = [Path(f) for f in dump["files"]]
        assert files, "dump wrote no files"
        index = json.loads(
            (Path(dump["dir"]) / "index.json").read_text(encoding="utf-8")
        )
        traced = [r for r in index["records"] if r["has_trace"]]
        assert traced, "no retained record carried a trace"
        slow_traced = [r for r in traced if r.get("slow")]
        assert slow_traced, "no slow query retained a trace"
        sample = Path(dump["dir"]) / f"{slow_traced[0]['query_id']}.trace.jsonl"
        trace = load_trace(sample)
        trace.validate_nesting()
        assert all(
            span.attributes.get("query_id") == slow_traced[0]["query_id"]
            for span in trace.spans
        ), "spans lost their query_id tag"
        chrome_path = (
            Path(dump["dir"]) / f"{slow_traced[0]['query_id']}.chrome.json"
        )
        chrome = json.loads(chrome_path.read_text(encoding="utf-8"))
        assert chrome["traceEvents"], "empty chrome trace"
        print(
            f"dumped {len(files)} files to {dump['dir']}; "
            f"slow trace {sample.name} nests and tags correctly"
        )

        top = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "top",
                str(port),
                "--once",
                "--client",
                "ci-top",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert top.returncode == 0, top.stderr
        assert "repro top" in top.stdout and "latency:" in top.stdout, (
            top.stdout
        )
        shown = re.search(r"^queries (\d+)", top.stdout, re.MULTILINE)
        assert shown and int(shown.group(1)) == ok, (
            f"top counts {shown and shown.group(1)} queries, {ok} were answered"
        )
        print("repro top --once rendered a frame:")
        print(top.stdout)

        client.shutdown()
        proc.wait(timeout=30)
        from repro.engines.execution import assert_no_leaked_segments

        assert_no_leaked_segments()
        print("serve observability gate: all claims hold")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    sys.exit(main())
