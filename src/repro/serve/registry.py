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
    """One loaded graph plus its (optional) shared-memory export.

    ``payload`` is a :class:`repro.engines.execution.SharedGraphPayload`
    when the registry shares and the platform supports shared memory,
    else ``None``. No query attaches it: a sharded run exports its own.
    """

    def __init__(self, name: str, graph: DataGraph, payload=None) -> None:
        self.name = name
        self.graph = graph
        self.payload = payload

    def describe(self) -> dict:
        """Wire-safe summary row for the ``graphs`` op."""
        return {
            "name": self.name,
            "vertices": int(self.graph.num_vertices),
            "edges": int(self.graph.num_edges),
            "fingerprint": self.graph.fingerprint,
            "shared": self.payload is not None,
        }

    def dispose(self) -> None:
        """Release the shared-memory segment (idempotent)."""
        if self.payload is not None:
            self.payload.dispose()
            self.payload = None


class GraphRegistry:
    """Name → :class:`ResidentGraph` map with single-load semantics.

    ``share=True`` (the default) also exports each graph's CSR arrays
    into a shared-memory segment at load time. Sharded queries do not
    attach that segment: each one's executor exports the graph afresh
    for its pool workers and unlinks it when the run ends. The registry
    owns its own segments: :meth:`close` disposes them, and tests pin
    the no-leak contract with
    :func:`repro.engines.execution.assert_no_leaked_segments`.
    """

    def __init__(self, share: bool = True) -> None:
        self.share = share
        self._graphs: dict[str, ResidentGraph] = {}
        self._lock = threading.Lock()

    def add(self, name: str, graph: DataGraph) -> ResidentGraph:
        """Register an already-built graph under ``name``."""
        with self._lock:
            existing = self._graphs.get(name)
            if existing is not None:
                return existing
            payload = None
            if self.share:
                from repro.engines.execution import export_graph

                payload = export_graph(graph)
            resident = ResidentGraph(name, graph, payload)
            self._graphs[name] = resident
            return resident

    def load(self, name: str) -> ResidentGraph:
        """Load ``name`` — a dataset name/code or an edge-list path.

        Idempotent: a name that is already resident is returned as-is
        (the graph is *not* re-read), so concurrent ``load`` requests
        for the same graph cost one load total.
        """
        with self._lock:
            existing = self._graphs.get(name)
        if existing is not None:
            return existing
        graph = self._build(name)
        return self.add(name, graph)

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
        """Dispose every shared segment and empty the registry."""
        with self._lock:
            residents = list(self._graphs.values())
            self._graphs.clear()
        for resident in residents:
            resident.dispose()

    def __len__(self) -> int:
        with self._lock:
            return len(self._graphs)

    def __enter__(self) -> "GraphRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
