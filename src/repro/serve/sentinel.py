"""Per-query resource sentinels: no query may wedge the daemon.

A resident service lives or dies by isolation: one runaway query — a
pattern that explodes combinatorially, a hang injected by the chaos
harness, a slow engine on a huge graph — must cost *its own* budget,
never a serving thread forever. The batch layer already has the
cancellation machinery (:class:`repro.Deadline` flows into
``RunControl`` and stops shard dispatch at the next boundary, returning
the established ``PartialRunResult`` / typed-error shapes); the
sentinel layer arms it per query and adds the trigger the batch layer
never needed: an **external** watchdog that can expire the deadline
from outside the run.

Each executing query gets a :class:`QuerySentinel` owning a live
:class:`~repro.engines.recovery.Deadline` (injectable clock) that the
server threads through ``RunOptions.deadline_seconds`` into the
session. The sentinel enforces two budgets:

* a **wall-clock budget** — baked into the deadline itself (the
  effective deadline is the tighter of the request's own deadline and
  the server's wall budget), so the run self-cancels at the next shard
  boundary with zero polling;
* an **RSS-growth budget** — the server's sampler loop polls
  :meth:`SentinelBoard.poll`, which reads the process RSS once. The
  budget is process-wide: one sample cannot say which query grew, so
  the growth is charged to the largest grower (the query watched
  longest), which is tripped via
  :meth:`~repro.engines.recovery.Deadline.expire` — the running
  session observes that exactly like a deadline expiry — and every
  other query is re-baselined at the sample, so none is charged for
  growth it did not make.

Trips are recorded with a reason (``wall-budget`` / ``rss-budget``) so
the server can tag responses, metrics and flight-recorder anomalies,
and feed the circuit breaker.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable

from repro.engines.recovery import Deadline

__all__ = ["QuerySentinel", "SentinelBoard"]

#: Stand-in horizon when only the RSS budget needs a cancellable
#: deadline (about 31,000 years — "no wall limit" in practice).
_FAR_FUTURE_SECONDS = 1e12


def process_rss_bytes() -> int | None:
    """Current process resident-set size; ``None`` when unreadable.

    Reads ``/proc/self/statm`` (POSIX) — no psutil dependency. The
    board's ``rss_reader`` is injectable, so tests feed synthetic RSS
    trajectories instead.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            fields = fh.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return None


class QuerySentinel:
    """Watchdog for one executing query.

    Owns the live :class:`Deadline` the run is cancelled through.
    :meth:`check` is called by the board's poll with the current RSS;
    the first budget violation trips the sentinel (idempotent) by
    expiring the deadline with the trip reason.
    """

    def __init__(
        self,
        query_id: str,
        deadline: Deadline,
        clock: Callable[[], float],
        wall_budget_s: float | None = None,
        rss_budget_bytes: int | None = None,
        rss_start: int | None = None,
    ) -> None:
        self.query_id = query_id
        self.deadline = deadline
        self.clock = clock
        self.wall_budget_s = wall_budget_s
        self.rss_budget_bytes = rss_budget_bytes
        self.rss_start = rss_start
        self.started_at = clock()
        self.tripped: str | None = None

    def trip(self, reason: str) -> None:
        """Cancel the query now (idempotent; first reason wins)."""
        if self.tripped is None:
            self.tripped = reason
            self.deadline.expire(reason)

    def check(self, rss: int | None = None) -> str | None:
        """Evaluate budgets; the trip reason if this call tripped it.

        The wall check uses the sentinel's own clock, so tests advance a
        fake clock instead of sleeping. The RSS check needs all three of
        a budget, a baseline, and a current sample to fire — partial
        information never cancels work.
        """
        if self.tripped is not None:
            return None
        if (
            self.wall_budget_s is not None
            and self.clock() - self.started_at > self.wall_budget_s
        ):
            self.trip("wall-budget")
            return "wall-budget"
        if (
            self.rss_budget_bytes is not None
            and self.rss_start is not None
            and rss is not None
            and rss - self.rss_start > self.rss_budget_bytes
        ):
            self.trip("rss-budget")
            return "rss-budget"
        return None

    def describe(self) -> dict[str, Any]:
        """Wire-safe summary row."""
        return {
            "query_id": self.query_id,
            "elapsed_s": self.clock() - self.started_at,
            "wall_budget_s": self.wall_budget_s,
            "rss_budget_bytes": self.rss_budget_bytes,
            "tripped": self.tripped,
        }


class SentinelBoard:
    """Registry of active sentinels plus the budgets they enforce.

    ``wall_budget_s`` / ``rss_budget_bytes`` are the server-wide
    defaults (``None`` disables that budget); the RSS budget bounds the
    process's growth charged to one query (:meth:`poll`). :meth:`watch`
    arms a sentinel for a starting query and returns it — or ``None``
    when there is nothing to enforce (no budgets, no request deadline),
    so the unguarded fast path stays exactly as before.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        wall_budget_s: float | None = None,
        rss_budget_bytes: int | None = None,
        rss_reader: Callable[[], int | None] = process_rss_bytes,
    ) -> None:
        if wall_budget_s is not None and wall_budget_s <= 0:
            raise ValueError(
                f"wall_budget_s must be positive, got {wall_budget_s!r}"
            )
        if rss_budget_bytes is not None and rss_budget_bytes <= 0:
            raise ValueError(
                f"rss_budget_bytes must be positive, got {rss_budget_bytes!r}"
            )
        self.clock = clock
        self.wall_budget_s = wall_budget_s
        self.rss_budget_bytes = rss_budget_bytes
        self.rss_reader = rss_reader
        self._active: dict[str, QuerySentinel] = {}
        self._lock = threading.Lock()
        self._trips: dict[str, int] = {}

    # -- lifecycle ----------------------------------------------------------

    def watch(
        self, query_id: str, deadline: Deadline | None = None
    ) -> QuerySentinel | None:
        """Arm a sentinel for a query that is starting to execute.

        ``deadline`` is the query's own, which has run since admission.
        The sentinel's deadline is the tighter of it and the server
        wall budget; with neither (and no RSS budget) no sentinel is
        armed.
        """
        wall = self.wall_budget_s
        if wall is not None and (deadline is None or deadline.remaining() > wall):
            deadline = Deadline(wall, clock=self.clock)
        if deadline is None:
            if self.rss_budget_bytes is None:
                return None
            deadline = Deadline(_FAR_FUTURE_SECONDS, clock=self.clock)
        sentinel = QuerySentinel(
            query_id,
            deadline,
            clock=self.clock,
            wall_budget_s=self.wall_budget_s,
            rss_budget_bytes=self.rss_budget_bytes,
            rss_start=(
                self.rss_reader() if self.rss_budget_bytes is not None else None
            ),
        )
        with self._lock:
            self._active[query_id] = sentinel
        return sentinel

    def finish(self, query_id: str) -> QuerySentinel | None:
        """Disarm and return the query's sentinel (``None`` if absent)."""
        with self._lock:
            return self._active.pop(query_id, None)

    # -- polling ------------------------------------------------------------

    def poll(self) -> list[tuple[str, str]]:
        """Check every active sentinel once; the ``(query_id, reason)``
        pairs tripped by *this* poll.

        Wall budgets are per query. The RSS budget is process-wide: the
        one RSS sample is charged to the largest grower — of the
        untripped sentinels with a baseline, the one whose baseline is
        lowest, so whose growth since it is largest — which trips when
        that growth exceeds the budget. A trip re-baselines every other
        such sentinel at the sample, so a survivor is charged neither
        on this poll nor later for growth it did not make. Called from
        the server's sampler loop; safe from any thread.
        """
        with self._lock:
            active = list(self._active.values())
        if not active:
            return []
        rss = (
            self.rss_reader() if self.rss_budget_bytes is not None else None
        )
        tripped: list[tuple[str, str]] = []
        for sentinel in active:
            reason = sentinel.check()
            if reason is not None:
                tripped.append((sentinel.query_id, reason))
        watched = [
            s for s in active if s.tripped is None and s.rss_start is not None
        ]
        if rss is not None and watched:
            grower = min(watched, key=lambda s: s.rss_start)
            reason = grower.check(rss)
            if reason is not None:
                tripped.append((grower.query_id, reason))
                for survivor in watched:
                    if survivor is not grower:
                        survivor.rss_start = rss
        if tripped:
            with self._lock:
                for _query_id, reason in tripped:
                    self._trips[reason] = self._trips.get(reason, 0) + 1
        return tripped

    # -- introspection ------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Wire-safe board state for the ``stats`` op."""
        with self._lock:
            return {
                "active": len(self._active),
                "wall_budget_s": self.wall_budget_s,
                "rss_budget_bytes": self.rss_budget_bytes,
                "trips": dict(self._trips),
            }
