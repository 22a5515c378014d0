"""Cross-query measurement and plan caches.

The same alternative pattern frequently recurs across queries and across
session runs — FSM's level k+1 closures overlap level k's, and repeated
ad-hoc queries share superpatterns (the overlap Section 5 exploits inside
one selection, lifted across selections). :class:`MeasurementCache`
memoizes measured aggregation values per (graph, item, aggregation), so a
session never re-matches a pattern it has already measured on the same
graph.

Only hashable, immutable aggregation values are cached (counts, MNI
tables); match-list values are deliberately not, to bound memory.

:class:`PlanCache` memoizes the planner search itself: repeated
``repro.run()`` calls with the same (graph fingerprint, queries,
aggregation, engine, strategy, margin) skip Algorithm 1 and the
rule-competition pass entirely and execute the stored
:class:`repro.plan.RewritePlan`. Keys use the graph's *content*
fingerprint, so two structurally identical graphs share entries while a
mutated/regenerated graph never collides.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.aggregation import Aggregation, MatchListAggregation
from repro.core.equations import Item
from repro.core.pattern import Pattern
from repro.graph.datagraph import DataGraph

if TYPE_CHECKING:
    from repro.plan.rewrite import RewritePlan


@dataclass
class _CountedStore:
    """A memo dict with hit/miss counters that threads may share.

    The daemon's worker threads share one :class:`PlanCache` and one
    :class:`MeasurementCache` per graph, and ``+= 1`` on an attribute is
    a read-modify-write that can lose an update between threads, so
    every counter change happens under the instance's lock.
    """

    _store: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def _counted(self, value):
        """Count ``value`` as a miss (``None``) or a hit; return it."""
        with self._lock:
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0


@dataclass
class MeasurementCache(_CountedStore):
    """Memoized ``(graph, aggregation, item) -> value`` measurements.

    Keyed by the graph's *content* fingerprint (as :class:`PlanCache`
    is), never ``id(graph)``: a freed graph's id is reused, and a cache
    that outlives its graphs would answer for the wrong one.
    """

    @staticmethod
    def _cacheable(aggregation: Aggregation) -> bool:
        return not isinstance(aggregation, MatchListAggregation)

    def key(self, graph: DataGraph, aggregation: Aggregation, item: Item):
        return (graph.fingerprint, aggregation.name, item)

    def get(self, graph: DataGraph, aggregation: Aggregation, item: Item):
        """Cached value or ``None`` (values themselves are never None)."""
        if not self._cacheable(aggregation):
            return None
        return self._counted(self._store.get(self.key(graph, aggregation, item)))

    def put(
        self, graph: DataGraph, aggregation: Aggregation, item: Item, value: Any
    ) -> None:
        if self._cacheable(aggregation) and value is not None:
            self._store[self.key(graph, aggregation, item)] = value


@dataclass
class PlanCache(_CountedStore):
    """Memoized planner searches keyed by everything that shapes a plan.

    The key is ``(graph fingerprint, queries, aggregation, engine,
    strategy, margin)`` — the exact query tuple (not just canonical
    ids: a plan's bookkeeping maps concrete query ``Pattern`` objects,
    and two differently-numbered isomorphic queries need different
    combine bookkeeping). Hit/miss counters mirror
    :class:`MeasurementCache`; the session additionally reports them as
    ``plan.cache.hit`` / ``plan.cache.miss`` metrics when traced.
    """

    def key(
        self,
        graph: DataGraph,
        patterns: list[Pattern],
        aggregation: Aggregation,
        *,
        engine: str,
        strategy: str,
        margin: float,
    ) -> tuple:
        return (
            graph.fingerprint,
            tuple(patterns),
            aggregation.name,
            engine,
            strategy,
            float(margin),
        )

    def get(
        self,
        graph: DataGraph,
        patterns: list[Pattern],
        aggregation: Aggregation,
        *,
        engine: str,
        strategy: str,
        margin: float,
    ) -> "RewritePlan | None":
        return self._counted(
            self._store.get(
                self.key(
                    graph,
                    patterns,
                    aggregation,
                    engine=engine,
                    strategy=strategy,
                    margin=margin,
                )
            )
        )

    def put(
        self,
        graph: DataGraph,
        patterns: list[Pattern],
        aggregation: Aggregation,
        plan: "RewritePlan",
        *,
        engine: str,
        strategy: str,
        margin: float,
    ) -> None:
        self._store[
            self.key(
                graph,
                patterns,
                aggregation,
                engine=engine,
                strategy=strategy,
                margin=margin,
            )
        ] = plan
