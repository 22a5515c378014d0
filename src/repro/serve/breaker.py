"""Per-(graph, engine) circuit breakers: fail fast on a failing cell.

A crash loop is worse than a crash: when a particular graph × engine
combination keeps killing workers (a poisoned dataset, an engine bug, a
chaos-injected crash spec), re-dispatching fresh queries into it burns
worker time, churns shard pools, and stretches every other client's
latency. The standard remedy is the circuit breaker — after ``N``
consecutive failures the breaker *opens* and requests fail immediately
with a typed ``rejected:circuit-open`` verdict (cheap, honest,
retryable); after a cool-down one *half-open* probe is let through, and
its outcome decides between closing the breaker and re-opening it.

State machine (clock injectable, no wall-clock reads in tests)::

    CLOSED --[failures >= threshold]--> OPEN
    OPEN   --[reset_seconds elapsed]--> HALF_OPEN   (probes admitted)
    HALF_OPEN --[probe succeeds]------> CLOSED
    HALF_OPEN --[probe fails]---------> OPEN        (cool-down restarts)

:class:`BreakerBoard` keys breakers by ``(graph, engine)`` — failure
isolation at exactly the granularity the execution layer shards on —
and reports every transition through an injectable callback so the
server can mint metrics and flight-recorder anomalies without this
module importing either.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

__all__ = ["BreakerBoard", "CircuitBreaker"]

#: Breaker verdict (wire error + admission verdict form).
REJECTED_CIRCUIT_OPEN = "rejected:circuit-open"

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker for one (graph, engine) cell.

    ``allow`` / ``record_success`` / ``record_failure`` are the whole
    protocol: call ``allow`` before dispatching (it also performs the
    OPEN → HALF_OPEN transition when the cool-down has elapsed), then
    report the outcome. Thread-safe; all timing via the injected clock.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_seconds: float = 5.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str], None] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold!r}"
            )
        if reset_seconds <= 0:
            raise ValueError(
                f"reset_seconds must be positive, got {reset_seconds!r}"
            )
        if half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {half_open_probes!r}"
            )
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self.half_open_probes = half_open_probes
        self.clock = clock
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probes_inflight = 0
        self._transitions = 0

    # -- state machine ------------------------------------------------------

    def _set_state(self, new_state: str) -> None:
        # Caller holds the lock; the callback runs outside it (below).
        self._pending_transition = (self._state, new_state)
        self._state = new_state
        self._transitions += 1

    def _fire_transition(self) -> None:
        pending = getattr(self, "_pending_transition", None)
        self._pending_transition = None
        if pending is not None and self.on_transition is not None:
            self.on_transition(*pending)

    def allow(self) -> bool:
        """Whether a request may be dispatched into this cell now.

        ``False`` means fail fast with ``rejected:circuit-open``. In
        HALF_OPEN at most ``half_open_probes`` requests are admitted
        concurrently; the rest keep failing fast until a probe reports.
        """
        with self._lock:
            if self._state == OPEN:
                opened_at = self._opened_at if self._opened_at is not None else 0.0
                if self.clock() - opened_at >= self.reset_seconds:
                    self._set_state(HALF_OPEN)
                    self._probes_inflight = 0
                else:
                    return False
            if self._state == HALF_OPEN:
                if self._probes_inflight >= self.half_open_probes:
                    self._fire_transition()
                    return False
                self._probes_inflight += 1
            allowed = True
        self._fire_transition()
        return allowed

    def record_success(self) -> None:
        """Report a successful request; closes a half-open breaker."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._set_state(CLOSED)
                self._probes_inflight = 0
        self._fire_transition()

    def record_failure(self) -> None:
        """Report a failed request; may open (or re-open) the breaker."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state == HALF_OPEN or (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._set_state(OPEN)
                self._opened_at = self.clock()
                self._probes_inflight = 0
        self._fire_transition()

    # -- introspection ------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state (``closed`` / ``open`` / ``half-open``)."""
        with self._lock:
            return self._state

    def retry_after(self) -> float | None:
        """Seconds until the cool-down admits a probe; ``None`` unless OPEN."""
        with self._lock:
            if self._state != OPEN or self._opened_at is None:
                return None
            return max(
                0.0, self.reset_seconds - (self.clock() - self._opened_at)
            )

    def snapshot(self) -> dict[str, Any]:
        """Wire-safe breaker state."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "reset_seconds": self.reset_seconds,
                "transitions": self._transitions,
            }


class BreakerBoard:
    """Lazy ``(graph, engine)`` → :class:`CircuitBreaker` map.

    ``on_transition(key, old, new)`` (injectable) observes every state
    change of every breaker; the server uses it to record metrics and
    flight-recorder anomalies. All breakers share one configuration and
    one clock.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_seconds: float = 5.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str, str], None] | None = None,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self.half_open_probes = half_open_probes
        self.clock = clock
        self.on_transition = on_transition
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _key_str(key: tuple[str, str]) -> str:
        return f"{key[0]}/{key[1]}"

    def get(self, graph: str, engine: str) -> CircuitBreaker:
        """The breaker for one cell, created closed on first use."""
        key = (graph, engine)
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                callback = None
                if self.on_transition is not None:
                    label = self._key_str(key)
                    outer = self.on_transition

                    def callback(old: str, new: str, _label=label) -> None:
                        outer(_label, old, new)

                breaker = CircuitBreaker(
                    failure_threshold=self.failure_threshold,
                    reset_seconds=self.reset_seconds,
                    half_open_probes=self.half_open_probes,
                    clock=self.clock,
                    on_transition=callback,
                )
                self._breakers[key] = breaker
            return breaker

    def snapshot(self) -> dict[str, Any]:
        """Wire-safe map ``"graph/engine" -> breaker state`` (stats op)."""
        with self._lock:
            cells = dict(self._breakers)
        return {
            self._key_str(key): breaker.snapshot()
            for key, breaker in sorted(cells.items())
        }
