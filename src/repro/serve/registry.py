"""Resident graph registry: load once, serve every query.

The cold-path cost a resident daemon amortizes away starts with the
graph itself: dataset synthesis/parsing and CSR construction.
:class:`GraphRegistry` does that exactly once per graph and keeps the
graph alive for every later query.
"""

from __future__ import annotations

import os
import threading
from typing import Iterable

from repro.graph.datagraph import DataGraph

__all__ = ["GraphRegistry", "ResidentGraph"]


class ResidentGraph:
    """One loaded graph under its registry name."""

    def __init__(self, name: str, graph: DataGraph) -> None:
        self.name = name
        self.graph = graph

    def describe(self) -> dict:
        """Wire-safe summary row for the ``graphs`` op."""
        return {
            "name": self.name,
            "vertices": int(self.graph.num_vertices),
            "edges": int(self.graph.num_edges),
            "fingerprint": self.graph.fingerprint,
        }


class GraphRegistry:
    """Name → :class:`ResidentGraph` map with single-load semantics.

    Every query reads the resident graph in place: sharded runs go on
    threads of the same process, so nothing is exported or copied.
    ``share`` is accepted and ignored; it stays only for the frozen
    ``benchmarks/morphbench/layers.py``, which passes ``share=False``,
    until ROADMAP item 1 (e) stops passing it.
    """

    def __init__(self, share: bool = True) -> None:
        del share  # accepted for the frozen benchmark caller, ignored
        self._graphs: dict[str, ResidentGraph] = {}
        self._lock = threading.Lock()
        #: name → the lock its one build holds (while it is in flight).
        self._building: dict[str, threading.Lock] = {}

    def add(self, name: str, graph: DataGraph) -> ResidentGraph:
        """Register an already-built graph under ``name``."""
        with self._lock:
            existing = self._graphs.get(name)
            if existing is not None:
                return existing
            resident = ResidentGraph(name, graph)
            self._graphs[name] = resident
            return resident

    def load(self, name: str) -> ResidentGraph:
        """Load ``name`` — a dataset name/code or an edge-list path.

        Idempotent: a name that is already resident is returned as-is
        (the graph is *not* re-read), and concurrent ``load`` requests
        for the same name cost one build total: the first builds under
        the name's lock, the rest wait on it and get its graph. Builds
        of different names run concurrently.
        """
        with self._lock:
            existing = self._graphs.get(name)
            if existing is not None:
                return existing
            building = self._building.setdefault(name, threading.Lock())
        with building:
            with self._lock:
                existing = self._graphs.get(name)
            if existing is not None:
                return existing
            try:
                return self.add(name, self._build(name))
            finally:
                with self._lock:
                    self._building.pop(name, None)

    def _build(self, name: str) -> DataGraph:
        from repro.graph import datasets
        from repro.graph.io import load_edge_list

        try:
            return datasets.load(name)
        except KeyError:
            if os.path.exists(name):
                return load_edge_list(name)
            raise KeyError(
                f"unknown graph {name!r}: not a dataset name/code and "
                "not an edge-list path"
            ) from None

    def get(self, name: str) -> ResidentGraph:
        """The resident graph for ``name``; :class:`KeyError` if absent."""
        with self._lock:
            resident = self._graphs.get(name)
        if resident is None:
            raise KeyError(
                f"graph {name!r} is not resident; load it first "
                f"(resident: {', '.join(sorted(self._graphs)) or 'none'})"
            )
        return resident

    def names(self) -> list[str]:
        """Sorted names of the resident graphs."""
        with self._lock:
            return sorted(self._graphs)

    def describe(self) -> list[dict]:
        """Wire-safe summary of every resident graph."""
        with self._lock:
            residents: Iterable[ResidentGraph] = list(self._graphs.values())
        return [r.describe() for r in sorted(residents, key=lambda r: r.name)]

    def close(self) -> None:
        """Empty the registry."""
        with self._lock:
            self._graphs.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._graphs)

    def __enter__(self) -> "GraphRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
