"""Smoke tests of the benchmark itself (run explicitly, not in tier-1):

    PYTHONPATH=src python -m pytest benchmarks/morphbench/test_morphbench.py -q

Every test drives ``run.py --quick`` as a subprocess, the way the driver
does, so the contract is checked end to end: metric names and units are
exactly those BENCHMARK.json declares, no op fails, spans nest, and a
wrong golden answer fails the run instead of passing silently.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.morphbench import inputs
from benchmarks.morphbench.spans import check_nesting

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run_quick(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    completed = subprocess.run(
        [
            sys.executable,
            *SPEC["command"][1:],
            "--workload", workload,
            "--seed", "1",
            "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace),
            "--quick",
            *extra,
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    return completed.returncode, json.loads(completed.stdout.strip().splitlines()[-1])


def test_workloads_match_the_package():
    assert tuple(WORKLOADS) == inputs.WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_emits_the_declared_metrics(workload):
    code, result = run_quick(workload, 0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_nested_spans(workload, tmp_path):
    code, result = run_quick(workload, 1, "--out", str(tmp_path))
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared

    spans = [
        json.loads(line)
        for line in (tmp_path / f"trace-{workload}.jsonl").read_text().splitlines()
    ]
    assert check_nesting(spans) == []
    roots = [span for span in spans if span["parent"] is None]
    assert [span["name"] for span in roots] == ["traced-run"]
    assert {span["name"] for span in spans} >= {"op", "morph.run", "layers"}

    hit_ratio = result["metrics"]["serve.server.result_cache_hit_ratio"]["value"]
    assert hit_ratio == (1.0 if workload == "serve-hit" else 0.0)


@pytest.mark.parametrize("workload", ["mc4-count", "serve-hit"])
def test_a_corrupted_golden_fails_the_run(workload, tmp_path):
    """A golden record that applies to the run's inputs but holds wrong
    answers must turn into failed ops and a non-zero exit."""
    vertices = inputs.quick_vertices(workload)
    if workload in inputs.IN_PROCESS:
        record = {"seed": 1, "vertices": vertices, "answer": [0, 0, 0, 0, 0, 0]}
        name = f"{workload}.json"
    else:
        wrong = [-1] * (inputs.COLD_WARMUP_QUERIES + inputs.HIT_SET_QUERIES)
        record = {"seed": 1, "vertices": vertices, "answers": wrong}
        name = "served.json"
    (tmp_path / name).write_text(json.dumps(record), encoding="utf-8")
    code, result = run_quick(workload, 0, "--golden", str(tmp_path))
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
