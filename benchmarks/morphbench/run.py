"""morphbench: run one workload for one seed and print its metrics.

    python3 benchmarks/morphbench/run.py --workload mc4-count --seed 1 \\
        --seconds 18 --trace 0

``--trace 0`` times the workload with tracing off and prints the four
end-to-end metrics; ``--trace 1`` makes the separate traced run and
prints every per-layer metric (and writes ``trace-<workload>.jsonl``).
Either way every answer is verified against the oracle path, each metric
is printed by name with its unit, and the last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--seconds`` sizes the op list (the window lasts about that long on the
reference box); it never cuts a run short — the list is fixed work.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: A run must end within 180 s; give up (and reap children) before that.
WATCHDOG_SECONDS = 170
#: Complete set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_s_p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def parse_args(argv: list[str] | None, inputs) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=inputs.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: a tenth of the ops on smaller graphs; the "
        "numbers are not comparable with anything and gate nothing",
    )
    parser.add_argument(
        "--golden", type=Path, default=None, help="directory of golden answers"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=ROOT / ".morphbench",
        help="where the traced run writes trace-<workload>.jsonl",
    )
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help="recompute the golden answers for the default seed and exit",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("morphbench: this checkout has no src/repro to mine with", file=sys.stderr)
        return 2
    # The script's own directory leads sys.path; the package and the
    # program live two levels up.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.morphbench import inputs, oracle, traced

    args = parse_args(argv, inputs)

    def give_up(*_):
        raise TimeoutError(f"morphbench ran longer than {WATCHDOG_SECONDS} s")

    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(WATCHDOG_SECONDS)

    golden_dir = args.golden or oracle.GOLDEN_DIR
    if args.record_golden:
        signal.alarm(0)
        oracle.record(golden_dir)
        return 0
    if args.workload is None:
        print("morphbench: --workload is required", file=sys.stderr)
        return 2

    workload = args.workload
    ops = inputs.op_count(workload, args.seconds, args.quick)
    vertices = inputs.quick_vertices(workload) if args.quick else None
    if args.trace:
        metrics, attempted, failed = traced.run_traced(
            workload,
            args.seed,
            ops,
            vertices=vertices,
            golden_dir=golden_dir,
            out_dir=args.out,
        )
        units = traced.PER_LAYER_UNITS
        samples = {}
    else:
        result, failed = oracle.verified_pass(
            workload, args.seed, ops, golden_dir, setups=SETUPS, vertices=vertices
        )
        attempted = len(result.op_seconds)
        metrics = {
            "setup_s": statistics.median(result.setup_seconds),
            "query_s_p50": statistics.median(result.op_seconds),
            "ops_per_s": attempted / result.window_s,
            "peak_rss_mib": result.vm_hwm_kib / 1024,
        }
        units = END_TO_END_UNITS
        samples = {"setup_s": SETUPS, "query_s_p50": attempted, "ops_per_s": attempted}
    signal.alarm(0)

    print(f"# morphbench {workload} seed={args.seed} ops={ops} trace={args.trace}")
    for name, value in metrics.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:48s} {value:.6g} {units[name]}{note}")
    print(f"# ops attempted {attempted}, failed {failed} (oracle verification on)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
