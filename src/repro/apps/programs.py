"""Pattern-based programming model (Peregrine-style fluent API).

The paper stresses that pattern-centric systems pair the matching engine
with *a high-level programming framework*: applications are written as
operations over the subgraphs matching declared patterns. This module
reproduces that front-end as a small fluent builder::

    census = (
        PatternProgram.on(graph)
        .match(motif_patterns(4))
        .count()
    )

    heavy = (
        PatternProgram.on(graph)
        .match([star, path])
        .filter(lambda pattern, m: weights[m[0]] > 0)
        .map(lambda pattern, m: 1)
        .reduce(lambda a, b: a + b, zero=0)
    )

``count()``/``exists()``/``mni()`` route through :class:`MorphingSession`
(so Subgraph Morphing applies transparently, exactly the paper's "add-on
module" claim), while ``filter``/``map``/``reduce`` pipelines stream
matches through Algorithm 3's on-the-fly conversion.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.core.aggregation import (
    CountAggregation,
    ExistenceAggregation,
    Match,
    MNIAggregation,
)
from repro.core.pattern import Pattern
from repro.engines.base import MiningEngine
from repro.engines.peregrine.engine import PeregrineEngine
from repro.graph.datagraph import DataGraph
from repro.morph.session import MorphingSession

FilterFn = Callable[[Pattern, Match], bool]
MapFn = Callable[[Pattern, Match], Any]


class PatternProgram:
    """Fluent builder over (graph, patterns, filter, engine, morphing)."""

    def __init__(self, graph: DataGraph) -> None:
        self._graph = graph
        self._patterns: list[Pattern] = []
        self._filters: list[FilterFn] = []
        self._engine: MiningEngine | None = None
        self._morph = True
        self._margin = 0.6
        self._workers = 1
        self._executor = None

    # -- construction -----------------------------------------------------

    @classmethod
    def on(cls, graph: DataGraph) -> "PatternProgram":
        return cls(graph)

    def match(self, patterns: Iterable[Pattern] | Pattern) -> "PatternProgram":
        """Declare the patterns of interest (appends on repeat calls)."""
        if isinstance(patterns, Pattern):
            self._patterns.append(patterns)
        else:
            self._patterns.extend(patterns)
        return self

    def filter(self, predicate: FilterFn) -> "PatternProgram":
        """Keep only matches passing ``predicate(pattern, match)``."""
        self._filters.append(predicate)
        return self

    def using(self, engine: MiningEngine) -> "PatternProgram":
        self._engine = engine
        return self

    def morphing(self, enabled: bool = True, margin: float | None = None) -> "PatternProgram":
        self._morph = enabled
        if margin is not None:
            self._margin = margin
        return self

    def parallel(self, workers: int, executor=None) -> "PatternProgram":
        """Shard-parallel matching for the terminal operations.

        ``workers > 1`` fans each pattern over degree-balanced
        root-vertex shards; results are merged deterministically and are
        identical to the serial run. ``executor`` picks the transport
        (``None``: a thread pool; ``"serial"``: inline sharding).
        """
        self._workers = workers
        self._executor = executor
        return self

    # -- terminal operations ------------------------------------------------

    def count(self) -> dict[Pattern, int]:
        """Match counts per pattern (exact; morphing applies when on)."""
        if self._filters:
            # Filtered counting must see matches: stream and tally.
            totals: dict[Pattern, int] = {p: 0 for p in self._patterns}

            def bump(pattern: Pattern, match: Match) -> None:
                totals[pattern] += 1

            self._stream(bump)
            return totals
        result = self._session(CountAggregation()).run(self._graph, self._patterns)
        return dict(result.results)

    def exists(self) -> dict[Pattern, bool]:
        """Whether each pattern has at least one (passing) match."""
        if self._filters:
            found = {p: False for p in self._patterns}

            def note(pattern: Pattern, match: Match) -> None:
                found[pattern] = True

            self._stream(note)
            return found
        result = self._session(ExistenceAggregation()).run(
            self._graph, self._patterns
        )
        return {p: bool(v) for p, v in result.results.items()}

    def mni(self) -> dict[Pattern, tuple]:
        """Minimum-node-image tables per pattern (the FSM aggregation)."""
        if self._filters:
            raise ValueError(
                "mni() with filters is application logic; use map/reduce"
            )
        result = self._session(MNIAggregation()).run(self._graph, self._patterns)
        return dict(result.results)

    def collect(self) -> dict[Pattern, list[Match]]:
        """Materialize every (passing) match per pattern."""
        out: dict[Pattern, list[Match]] = {p: [] for p in self._patterns}

        def keep(pattern: Pattern, match: Match) -> None:
            out[pattern].append(match)

        self._stream(keep)
        return out

    def for_each(self, action: Callable[[Pattern, Match], None]) -> None:
        """Run ``action`` on every (passing) match."""
        self._stream(action)

    def map(self, fn: MapFn) -> "_MappedProgram":
        """Per-match projection; chain ``.reduce(...)`` to fold."""
        return _MappedProgram(self, fn)

    # -- plumbing -------------------------------------------------------------

    def _session(self, aggregation) -> MorphingSession:
        return MorphingSession(
            self._engine or PeregrineEngine(),
            aggregation=aggregation,
            enabled=self._morph,
            margin=self._margin,
            workers=self._workers,
            executor=self._executor,
        )

    def _stream(self, consumer: Callable[[Pattern, Match], None]) -> None:
        if not self._patterns:
            return
        filters = list(self._filters)

        def process(pattern: Pattern, match: Match) -> None:
            for predicate in filters:
                if not predicate(pattern, match):
                    return
            consumer(pattern, match)

        session = MorphingSession(
            self._engine or PeregrineEngine(),
            enabled=self._morph,
            margin=self._margin,
            workers=self._workers,
            executor=self._executor,
        )
        session.run_streaming(self._graph, self._patterns, process)


class _MappedProgram:
    """The ``map`` stage: holds the projection until ``reduce`` runs it."""

    def __init__(self, program: PatternProgram, fn: MapFn) -> None:
        self._program = program
        self._fn = fn

    def reduce(
        self, combine: Callable[[Any, Any], Any], zero: Any
    ) -> dict[Pattern, Any]:
        """Fold the projected values per pattern."""
        accumulators: dict[Pattern, Any] = {
            p: zero for p in self._program._patterns
        }

        def step(pattern: Pattern, match: Match) -> None:
            accumulators[pattern] = combine(
                accumulators[pattern], self._fn(pattern, match)
            )

        self._program._stream(step)
        return accumulators

    def collect(self) -> dict[Pattern, list[Any]]:
        """All projected values per pattern."""
        out: dict[Pattern, list[Any]] = {p: [] for p in self._program._patterns}

        def step(pattern: Pattern, match: Match) -> None:
            out[pattern].append(self._fn(pattern, match))

        self._program._stream(step)
        return out
