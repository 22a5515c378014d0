"""Benchmark-side spans: the traced run's record of where time went.

Spans are recorded by the benchmark's own code around its calls into
each layer (tracing *inside* the program is a later issue). They live
in memory and are written out once, when the run ends. All processes of
a run stamp ``time.perf_counter`` — ``CLOCK_MONOTONIC`` on Linux, one
clock for the whole machine — so spans recorded in a child process nest
under spans recorded in the parent without translation.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class SpanLog:
    """An append-only list of spans with parent links.

    A span is ``{"id", "name", "start", "end", "parent", "op"}``;
    ``parent`` is the id of the span that caused it (``None`` for a
    root) and ``op`` the operation id all spans of one op share.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None) -> Iterator[dict]:
        """Record the enclosed block, nested under the open span."""
        record = self.add(name, time.perf_counter(), None, op=op)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(
        self,
        name: str,
        start: float,
        end: float | None,
        op: int | None = None,
        parent: int | None = None,
    ) -> dict:
        """Append a span measured elsewhere (e.g. a phase the program
        reports as a duration), under ``parent`` or the open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "op": op,
        }
        self.spans.append(record)
        return record

    def add_phases(self, parent: dict, phases: dict[str, float]) -> None:
        """Lay reported phase durations end to end inside ``parent``.

        The program reports *how long* each phase took, not when; the
        phases of one call run one after another, so placing them back
        to back from the parent's start is exact in duration (which is
        all self time needs) and approximate only in position.
        """
        cursor = parent["start"]
        for name, seconds in phases.items():
            self.add(name, cursor, cursor + seconds, parent=parent["id"])
            cursor += seconds

    def extend(self, spans: list[dict], parent: int | None = None) -> None:
        """Adopt spans recorded by another process's :class:`SpanLog`."""
        offset = len(self.spans)
        for span in spans:
            adopted = dict(span, id=span["id"] + offset)
            if span["parent"] is None:
                adopted["parent"] = parent
            else:
                adopted["parent"] = span["parent"] + offset
            self.spans.append(adopted)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_seconds(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: its duration minus what its children cover.

    Children of one span do not overlap here (one thread records them
    in sequence), so the covered part is the sum of their durations.
    """
    own = {span["id"]: duration(span) for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= duration(span)
    return own


def check_nesting(spans: list[dict]) -> list[str]:
    """Violations of the span contract (empty when the trace is sound):
    every span closed, parents exist, children lie within their parent."""
    by_id = {span["id"]: span for span in spans}
    problems = []
    slack = 1e-6
    for span in spans:
        if span["end"] is None or span["end"] < span["start"]:
            problems.append(f"span {span['id']} ({span['name']}) is not closed")
            continue
        if span["parent"] is None:
            continue
        parent = by_id.get(span["parent"])
        if parent is None:
            problems.append(f"span {span['id']} names a missing parent")
        elif (
            span["start"] < parent["start"] - slack
            or span["end"] > parent["end"] + slack
        ):
            problems.append(
                f"span {span['id']} ({span['name']}) escapes its parent "
                f"{parent['id']} ({parent['name']})"
            )
    return problems
