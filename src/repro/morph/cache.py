"""Cross-query measurement and plan caches, and the one bound they share.

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

Both are bounded stores (:class:`BoundedStore`), the one rule for
state kept across queries. The resident daemon's result cache and
idempotency map are stores too, so every tier it keeps stops growing at
its capacity.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.core.aggregation import Aggregation, MatchListAggregation
from repro.core.equations import Item
from repro.core.pattern import Pattern
from repro.graph.datagraph import DataGraph

if TYPE_CHECKING:
    from repro.plan.rewrite import RewritePlan

#: Entries a store keeps, unless its owner sets another ``capacity``.
STORE_CAPACITY = 4096


class BoundedStore:
    """An insertion-ordered map that keeps at most ``capacity`` entries.

    :meth:`insert` past capacity evicts the oldest-inserted entries and
    counts them; a key already present keeps its place in the queue.
    :meth:`lookup` counts hits and misses (values are never ``None``).
    Threads may share a store: every read and write, and the copy
    :meth:`snapshot` takes, happen under the store's own lock, since a
    ``+= 1`` or a dict copy racing an insert can lose an update or fail.
    ``capacity`` is :data:`STORE_CAPACITY` as it reads when the store is
    built (tests patch the constant before building the store's owner).
    """

    def __init__(self) -> None:
        self.capacity = STORE_CAPACITY
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key):
        """The value stored under ``key``, or ``None``; counted."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def insert(self, key, value) -> int:
        """Store ``value``; return how many old entries were evicted."""
        with self._lock:
            entries = self._entries
            entries[key] = value
            evicted = max(0, len(entries) - self.capacity)
            for _ in range(evicted):
                del entries[next(iter(entries))]
            self.evictions += evicted
        return evicted

    def snapshot(self) -> dict:
        """A copy of the entries, oldest first."""
        with self._lock:
            return dict(self._entries)

    def describe(self) -> dict:
        """``entries`` and ``evictions``, as the daemon's ``stats`` reports."""
        return {"entries": len(self), "evictions": self.evictions}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


class MeasurementCache(BoundedStore):
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
        return self.lookup(self.key(graph, aggregation, item))

    def put(
        self, graph: DataGraph, aggregation: Aggregation, item: Item, value: Any
    ) -> None:
        if self._cacheable(aggregation) and value is not None:
            self.insert(self.key(graph, aggregation, item), value)


class PlanCache(BoundedStore):
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
        return self.lookup(
            self.key(
                graph,
                patterns,
                aggregation,
                engine=engine,
                strategy=strategy,
                margin=margin,
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
        self.insert(
            self.key(
                graph,
                patterns,
                aggregation,
                engine=engine,
                strategy=strategy,
                margin=margin,
            ),
            plan,
        )
