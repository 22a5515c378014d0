"""Answer verification: golden files for the default seed, the baseline
path recomputed (untimed) for any other.

The oracle is always the ``RunOptions(morph=False)`` baseline — the
paper's claim C1 is that morphed answers equal it exactly — run on the
batched frontier kernels, so it shares neither the morphing algebra nor
the per-root matching kernel with the timed configuration (see
``worker.ORACLE_OPTIONS``). A mismatch is a failed op.

``run.py --record-golden`` rewrites the golden files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import repro

from benchmarks.morphbench import harness, inputs

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
#: Share of ``serve-cold``'s timed ops recomputed when no golden applies.
COLD_SAMPLE_SHARE = 0.10


def golden_path(directory: Path, workload: str) -> Path:
    """Both served workloads query the same graph: one file for the two."""
    name = "served" if workload in inputs.SERVED else workload
    return Path(directory) / f"{name}.json"


def load_golden(directory: Path, workload: str, seed: int, vertices: int | None):
    """The golden record for exactly these inputs, else ``None``
    (``vertices=None`` is the workload's full size)."""
    vertices = vertices or inputs.SPECS[workload].vertices
    path = golden_path(directory, workload)
    if not path.exists():
        return None
    record = json.loads(path.read_text(encoding="utf-8"))
    if record["seed"] != seed or record["vertices"] != vertices:
        return None
    return record


def failed_in_process(answers: list, expected: list) -> int:
    """Ops whose answer differs from the oracle's."""
    return sum(1 for answer in answers if answer != expected)


def served_expectations(
    workload: str, seed: int, vertices: int | None, texts: list[str], golden_dir: Path
) -> dict[str, int]:
    """Oracle counts by query text, for as many ops as can be checked:
    all of them when the golden record covers the list, else every
    distinct ``serve-hit`` query or a seeded 10 % of ``serve-cold``'s."""
    golden = load_golden(golden_dir, workload, seed, vertices)
    distinct = sorted(set(texts))
    if golden is not None:
        design = inputs.labeled_queries(len(golden["answers"]))
        by_text = {
            repro.format_pattern(query): count
            for query, count in zip(design, golden["answers"])
        }
        if all(text in by_text for text in distinct):
            return {text: by_text[text] for text in distinct}
    if workload == "serve-cold":
        size = max(1, round(COLD_SAMPLE_SHARE * len(distinct)))
        distinct = random.Random(seed).sample(distinct, size)
    return harness.ask_worker(
        workload, seed, vertices, cmd="oracle", queries=distinct
    )["answers"]


def failed_served(workload: str, answers: list, expected: dict[str, int]) -> int:
    """Ops that raised, were rejected, came back partial, carry the
    wrong ``cached`` flag for their workload, or disagree with the oracle."""
    want_cached = workload == "serve-hit"
    failed = 0
    for text, outcome in answers:
        if isinstance(outcome, Exception):
            failed += 1
            continue
        (count,) = outcome.results.values()
        if (
            outcome.partial
            or outcome.cached != want_cached
            or (text in expected and count != expected[text])
        ):
            failed += 1
    return failed


def verified_pass(
    workload: str, seed: int, ops: int, golden_dir: Path, **options
) -> tuple[harness.PassResult, int]:
    """Run one pass and count its failed ops: ``(result, failed)``."""
    vertices = options.get("vertices")
    if workload in inputs.SERVED:
        result = harness.served_pass(workload, seed, ops, **options)
        texts = [text for text, _outcome in result.answers]
        expected = served_expectations(workload, seed, vertices, texts, golden_dir)
        return result, failed_served(workload, result.answers, expected)
    golden = load_golden(golden_dir, workload, seed, vertices)
    result = harness.in_process_pass(
        workload, seed, ops, want_oracle=golden is None, **options
    )
    expected = golden["answer"] if golden is not None else result.oracle_answer
    return result, failed_in_process(result.answers, expected)


def record(directory: Path = GOLDEN_DIR) -> None:
    """Recompute and write every golden file for the default inputs."""
    directory.mkdir(parents=True, exist_ok=True)
    seed = inputs.DEFAULT_SEED
    for workload in inputs.IN_PROCESS:
        answer = harness.ask_worker(workload, seed, None, cmd="oracle")["answer"]
        payload = {
            "seed": seed,
            "vertices": inputs.SPECS[workload].vertices,
            "answer": answer,
        }
        golden_path(directory, workload).write_text(
            json.dumps(payload, indent=1) + "\n", encoding="utf-8"
        )
    design = inputs.labeled_queries(
        inputs.COLD_WARMUP_QUERIES
        + inputs.op_count("serve-cold", inputs.DEFAULT_SECONDS)
    )
    texts = [repro.format_pattern(query) for query in design]
    answers = harness.ask_worker(
        "serve-cold", seed, None, cmd="oracle", queries=texts
    )["answers"]
    payload = {
        "seed": seed,
        "vertices": inputs.SPECS["serve-cold"].vertices,
        "answers": [answers[text] for text in texts],
    }
    golden_path(directory, "serve-cold").write_text(
        json.dumps(payload) + "\n", encoding="utf-8"
    )
