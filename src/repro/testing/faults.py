"""Deterministic shard-level fault injection.

The fault-tolerance layer is only trustworthy if its recovery paths are
*exercised*, not just written; this module injects the three failure
modes the execution layer must survive, keyed by **shard index** so
every run of a test hits exactly the same shards:

* ``hang`` — the shard wedges: it spins polling the run's stop signal
  and never produces a result, releasing only when the deadline (or a
  saturation cancel) fires. Pair it with a deadline; a hang with no
  stop signal configured is rejected up front.
* ``slow`` — the shard sleeps ``seconds`` before executing normally
  (deadline-pressure without wedging).
* ``corrupt`` — the shard completes but returns a silently wrong value
  (counts off by ``delta``, booleans inverted, lists truncated). Used
  to prove the differential matrix *would catch* silent corruption and
  that checkpoint integrity checking rejects tampered records.

A shard runs once, so a spec fires on every run of its shard.
:class:`QueryFaultPlan` is the resident service's counterpart, keyed
by query index and scoped by attempt, because a client retries a
query.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

from repro.errors import WorkerCrashError

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "QueryFault",
    "QueryFaultPlan",
    "QueryFaultSpec",
]

_KINDS = ("hang", "slow", "corrupt")

#: Query-scoped kinds, keyed to where each fires: crash, hang and slow in
#: the daemon's ``execute`` stage; corrupt (the response line, not a
#: value) and torn-socket where the socket handler encodes the response.
_QUERY_FAULT_STAGES = {
    "crash": "execute",
    "hang": "execute",
    "slow": "execute",
    "corrupt": "encode",
    "torn-socket": "encode",
}
_QUERY_KINDS = tuple(_QUERY_FAULT_STAGES)


@dataclass(frozen=True)
class FaultSpec:
    """One shard's injected failure mode.

    ``seconds`` is the ``slow`` delay; ``delta`` the ``corrupt`` offset
    applied to integer values (the first of a tuple of them: a cut
    group's partial sums).
    """

    kind: str
    seconds: float = 0.05
    delta: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {_KINDS}"
            )


class FaultPlan:
    """Shard-index-keyed fault schedule for one run.

    Construct from a ``{shard_index: FaultSpec}`` mapping. The plan is
    consulted by ``repro.engines.execution.run_shard``, on pool threads
    and inline alike; it keys on the shard index alone, so behavior is
    identical no matter which thread evaluates the plan.
    """

    def __init__(self, specs: Mapping[int, FaultSpec] | None = None) -> None:
        self.specs: dict[int, FaultSpec] = dict(specs or {})

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}:{s.kind}" for i, s in sorted(self.specs.items()))
        return f"FaultPlan({{{inner}}})"

    def spec_for(self, shard_index: int) -> FaultSpec | None:
        """The spec that fires for this shard, if any."""
        return self.specs.get(shard_index)

    # -- application -------------------------------------------------------

    def apply_before_shard(
        self,
        shard_index: int,
        *,
        stop_check: Callable[[], bool] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> bool:
        """Fire pre-execution faults; returns True when the shard must abort.

        ``slow`` sleeps and proceeds; ``hang`` polls ``stop_check``
        until it fires, then reports the shard as aborted (return
        ``True`` — the caller produces no result for it). ``corrupt`` does nothing here (it rewrites the
        result afterwards, see :meth:`transform_value`).
        """
        spec = self.spec_for(shard_index)
        if spec is None:
            return False
        if spec.kind == "slow":
            sleep(spec.seconds)
            return False
        if spec.kind == "hang":
            if stop_check is None:
                raise ValueError(
                    "a 'hang' fault needs a stop signal (deadline or cancel) "
                    "to release it — configure a deadline for this run"
                )
            while not stop_check():
                sleep(0.005)
            return True
        return False  # corrupt: post-execution only

    def transform_value(self, shard_index: int, value):
        """Apply a ``corrupt`` spec to a completed shard's value."""
        spec = self.spec_for(shard_index)
        if spec is None or spec.kind != "corrupt":
            return value
        if isinstance(value, bool):
            return not value
        if isinstance(value, int):
            return value + spec.delta
        if isinstance(value, tuple) and value and isinstance(value[0], int):
            return (value[0] + spec.delta,) + value[1:]
        if isinstance(value, list):
            return value[:-1] if value else value
        return value


@dataclass(frozen=True)
class QueryFaultSpec:
    """One query's injected failure mode in the resident service.

    Query-scoped kinds split between the execution path and the wire:

    * ``crash`` — the query's run dies as a worker crash (the server
      answers with the typed ``worker-crash`` error and the circuit
      breaker counts a failure).
    * ``hang`` — the query wedges until its sentinel cancels it.
    * ``slow`` — the query sleeps ``seconds`` before running (latency
      pressure for the shed controller).
    * ``corrupt`` — the *response bytes* are garbled on the wire, so the
      client sees an unparsable line and must retry; the daemon's own
      state stays correct.
    * ``torn-socket`` — the connection is dropped before the response is
      written; the client sees EOF mid-request and must retry.

    ``times`` bounds how many *attempts* of the same query index the
    fault affects (``None`` = every attempt) — which is how client-side
    retry convergence is proven.
    """

    kind: str
    times: int | None = 1
    seconds: float = 0.05
    delta: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _QUERY_KINDS:
            raise ValueError(
                f"unknown query fault kind {self.kind!r}; "
                f"choose from {_QUERY_KINDS}"
            )

    def active(self, attempt: int) -> bool:
        """Whether this spec fires on the given (0-based) attempt."""
        return self.times is None or attempt < self.times


class QueryFaultPlan:
    """Query-index-keyed fault schedule for the resident service.

    The chaos harness installs one of these on a :class:`MiningServer`;
    each arriving ``run`` request carries a client-chosen ``query
    index`` (its position in the driving workload), and the plan tracks
    per-index *attempt* counters server-side so a retried request of the
    same index advances to the next attempt. ``begin`` is the single
    entry point: it burns one attempt and returns ``(spec, attempt)``
    so wire-level and execution-level fault sites observe the same
    attempt number for one request.
    """

    def __init__(
        self, specs: Mapping[int, QueryFaultSpec] | None = None
    ) -> None:
        self.specs: dict[int, QueryFaultSpec] = dict(specs or {})
        self._attempts: dict[int, int] = {}
        self._lock = threading.Lock()

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{i}:{s.kind}x{s.times if s.times is not None else 'inf'}"
            for i, s in sorted(self.specs.items())
        )
        return f"QueryFaultPlan({{{inner}}})"

    @classmethod
    def random(
        cls,
        num_queries: int,
        seed: int,
        p_fault: float = 0.3,
        kinds: tuple[str, ...] = _QUERY_KINDS,
        max_times: int = 2,
    ) -> "QueryFaultPlan":
        """Seed-derived plan; same seed, same plan, always."""
        rng = random.Random(seed)
        specs: dict[int, QueryFaultSpec] = {}
        for index in range(num_queries):
            if rng.random() < p_fault:
                kind = rng.choice(list(kinds))
                specs[index] = QueryFaultSpec(
                    kind,
                    times=rng.randint(1, max_times),
                    seconds=0.01 * rng.randint(1, 3),
                )
        return cls(specs)

    def begin(self, query_index: int | None) -> "QueryFault":
        """Burn one attempt of ``query_index``; the spec that fires, if any.

        Returns ``(spec, attempt)`` where ``spec`` is ``None`` when no
        fault is scheduled for this attempt. ``None`` indexes (requests
        outside the chaos workload) never fault.
        """
        if query_index is None:
            return QueryFault(None, 0)
        with self._lock:
            attempt = self._attempts.get(query_index, 0)
            self._attempts[query_index] = attempt + 1
        return QueryFault(self.spec_for(query_index, attempt), attempt)

    def spec_for(
        self, query_index: int, attempt: int
    ) -> QueryFaultSpec | None:
        """The spec that fires for this (query, attempt), if any."""
        spec = self.specs.get(query_index)
        if spec is not None and spec.active(attempt):
            return spec
        return None


class QueryFault(NamedTuple):
    """One request's draw from a :class:`QueryFaultPlan`: the spec that
    fires (``None`` when none does) and the attempt it fires on.

    The daemon's stage runner fires it in the stage its kind names
    (:attr:`stage`): :meth:`fire` in ``execute``, :meth:`encode` where
    the socket handler encodes the response.
    """

    spec: QueryFaultSpec | None
    attempt: int

    @property
    def stage(self) -> str | None:
        """The stage this fault fires in (``None`` when nothing fires)."""
        return None if self.spec is None else _QUERY_FAULT_STAGES[self.spec.kind]

    def fire(self, stop=None) -> None:
        """The ``execute`` hook.

        ``crash`` raises a :class:`WorkerCrashError`, the breaker's
        only crash input; ``slow`` sleeps; ``hang``
        wedges until ``stop`` (the query's sentinel deadline) expires —
        exactly the runaway a production sentinel exists to cancel.
        """
        kind = self.spec.kind
        if kind == "crash":
            raise WorkerCrashError(
                f"injected chaos crash (attempt {self.attempt})",
                attempts=self.attempt + 1,
            )
        if kind == "slow":
            time.sleep(self.spec.seconds)
        elif kind == "hang":
            if stop is None:
                raise ValueError(
                    "a 'hang' chaos fault needs a wall budget or deadline "
                    "to release it — configure one for this server"
                )
            while not stop.expired():
                time.sleep(0.005)

    def encode(self, frame: bytes) -> bytes | None:
        """The socket handler's ``encode`` hook: ``corrupt`` replaces the
        response line with an unparsable one; ``torn-socket`` drops it
        (``None``: hang up without answering)."""
        if self.spec.kind == "corrupt":
            return b"\x00corrupted-response-frame\n"
        return None
