"""The one-call public facade: :func:`repro.run`.

Wraps the full Subgraph Morphing pipeline — engine resolution, session
construction, execution and optional structured telemetry — behind a
single function, so the common case reads::

    import repro
    result = repro.run(graph, patterns)              # morphed counting
    result = repro.run(graph, patterns, options=repro.RunOptions(
        engine="autozero", workers=4, trace="run.jsonl"))

Configuration travels in one typed :class:`repro.RunOptions` object —
also the wire request schema of the resident mining service
(:mod:`repro.serve`). The session class remains available for callers
that need streaming mode, a caller-owned executor, or engine
subclassing.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.pattern import Pattern
from repro.engines.autozero.engine import AutoZeroEngine
from repro.engines.base import MiningEngine
from repro.engines.bigjoin.engine import BigJoinEngine
from repro.engines.graphpi.engine import GraphPiEngine
from repro.engines.peregrine.engine import PeregrineEngine
from repro.engines.sumpa.engine import SumPAEngine
from repro.graph.datagraph import DataGraph
from repro.morph.session import MorphingSession, MorphRunResult
from repro.observe.export import write_jsonl
from repro.options import RunOptions

__all__ = ["ENGINES", "resolve_engine", "run"]

#: Engine-name registry (the five substrates of Section 7).
ENGINES: dict[str, type[MiningEngine]] = {
    "peregrine": PeregrineEngine,
    "autozero": AutoZeroEngine,
    "graphpi": GraphPiEngine,
    "bigjoin": BigJoinEngine,
    "sumpa": SumPAEngine,
}


def resolve_engine(
    engine: str | MiningEngine | type[MiningEngine], *, fresh: bool = False
) -> MiningEngine:
    """Turn an engine spec into a live engine instance.

    Accepts a registry name (``"peregrine"``, case-insensitive), a
    :class:`MiningEngine` subclass, or an already-built instance (passed
    through untouched, so callers can pre-configure e.g.
    ``GraphPiEngine.use_iep``).

    **Sharing contract.** An engine instance carries per-run mutable
    state — ``stats`` accumulate, and the session attaches its
    ``tracer``/``progress``/``batch_roots`` to the instance for the
    duration of a run — so one instance must never serve two *concurrent*
    runs. Reusing an instance across sequential runs is fine (each run
    resets the stats). An instance that is mid-run (its session marked
    it busy) is rejected here with :class:`ValueError`; concurrent
    callers should resolve by name or class so every run gets a fresh
    instance. ``fresh=True`` (the service path) enforces exactly that:
    instances are rejected outright and names/classes build a new
    engine per call.
    """
    if isinstance(engine, MiningEngine):
        if fresh:
            raise TypeError(
                f"{type(engine).__name__} instance rejected: this path "
                "serves concurrent queries and engine instances carry "
                "per-run mutable state (stats, tracer, progress); resolve "
                "by name or class so each query gets a fresh engine"
            )
        if getattr(engine, "busy", False):
            raise ValueError(
                f"{type(engine).__name__} instance is already mid-run; an "
                "engine instance carries per-run mutable state (stats, "
                "tracer, progress) and cannot be shared across concurrent "
                "runs — resolve by name or class to get a fresh instance"
            )
        return engine
    if isinstance(engine, type) and issubclass(engine, MiningEngine):
        return engine()
    if isinstance(engine, str):
        factory = ENGINES.get(engine.lower())
        if factory is None:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {', '.join(sorted(ENGINES))}"
            )
        return factory()
    raise TypeError(
        f"engine must be a name, MiningEngine subclass or instance, got {engine!r}"
    )


def run(
    graph: DataGraph,
    patterns: Sequence[Pattern] | Pattern,
    engine: str | MiningEngine | type[MiningEngine] | None = None,
    *,
    options: RunOptions | None = None,
) -> MorphRunResult:
    """Mine ``patterns`` on ``graph`` through the morphing pipeline.

    Parameters
    ----------
    graph:
        The data graph (:class:`repro.DataGraph`; see
        :mod:`repro.graph.datasets` and :mod:`repro.graph.generators`).
    patterns:
        The query patterns — a sequence, or a single :class:`Pattern`.
    engine:
        Registry name (``"peregrine"``, ``"autozero"``, ``"graphpi"``,
        ``"bigjoin"``, ``"sumpa"``), engine class, or instance. When
        omitted, ``options.engine`` (default ``"peregrine"``) decides.
        An explicit instance is used as-is — see the sharing contract on
        :func:`resolve_engine` before reusing one across runs.
    options:
        A :class:`repro.RunOptions` carrying the whole run
        configuration — aggregation, morphing/strategy, workers,
        margin, caches, tracing, progress, the match kernel and the four
        fault-tolerance knobs. See the ``RunOptions`` field docs (and
        the README's parameter table) for the semantics of each field.
        ``None`` runs with defaults: morphed counting, the ``"auto"``
        strategy, serial, untraced, on the batched frontier kernel
        (``batch_roots=0`` selects the per-root reference kernel;
        results are identical).

    Returns
    -------
    MorphRunResult
        ``result.results`` maps each query pattern to its value;
        ``stats``, per-phase ``*_seconds``, ``selection`` and ``trace``
        carry the run's telemetry. Deadline-degraded runs return the
        :class:`repro.PartialRunResult` subclass.
    """
    opts = options if options is not None else RunOptions()
    if isinstance(patterns, Pattern):
        patterns = [patterns]
    resolved = resolve_engine(engine if engine is not None else opts.engine)
    tracer, trace_path = opts.resolved_tracer()
    session = MorphingSession(
        resolved,
        options=opts.replace(trace=tracer, progress=opts.resolved_progress()),
    )
    result = session.run(graph, list(patterns))
    if trace_path is not None:
        write_jsonl(result.trace, trace_path)
    return result
