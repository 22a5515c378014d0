"""A/A check: run every workload twice on the same checkout and compare.

    python -m benchmarks.morphbench.aa > benchmarks/morphbench/AA_REPORT.md

Two back-to-back runs of identical code, same seed, same op lists. For
every end-to-end metric it prints both values, their relative gap and
the metric's bound from BENCHMARK.json, and exits non-zero if any gap
exceeds its bound — a benchmark that cannot agree with itself cannot
gate anything.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            *command,
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} ops failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    seed, seconds = 1, spec["run_seconds"]

    print("# morphbench A/A report")
    print()
    print(
        f"Two runs of the same checkout, back to back, seed {seed}, "
        f"`--seconds {seconds}`. Gap = |B - A| / A."
    )
    print()
    print("| workload | metric | run A | run B | gap | bound | within |")
    print("|---|---|---|---|---|---|---|")
    worst = 0.0
    exceeded = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        first = run_once(spec["command"], workload, seed, seconds)
        second = run_once(spec["command"], workload, seed, seconds)
        for name, bound in bounds.items():
            gap = abs(second[name] - first[name]) / first[name]
            worst = max(worst, gap / bound)
            ok = gap <= bound
            if not ok:
                exceeded.append(f"{workload}/{name}")
            print(
                f"| {workload} | {name} | {first[name]:.5g} {units[name]} | "
                f"{second[name]:.5g} {units[name]} | {gap:.4f} | {bound} | "
                f"{'yes' if ok else 'NO'} |",
                flush=True,
            )
    print()
    if exceeded:
        print(f"**{len(exceeded)} gap(s) exceed their bound:** {', '.join(exceeded)}")
        return 1
    print(
        f"All {len(bounds) * len(spec['workloads'])} gaps are within their bounds "
        f"(the largest uses {worst:.0%} of its bound)."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
