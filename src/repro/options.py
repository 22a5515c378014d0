"""Typed run configuration: :class:`RunOptions`.

``repro.run()`` grew one keyword at a time — workers, margin, caches,
tracing, batching, four fault-tolerance knobs — until its signature was
sixteen loose kwargs that every layer (facade, session, CLI, bench
harness) re-declared in parallel. :class:`RunOptions` consolidates them
into one frozen, validated dataclass that is simultaneously:

* the **primary API**: ``repro.run(graph, patterns, options=RunOptions(
  workers=4, strategy="auto"))``;
* the **session configuration**: :class:`repro.MorphingSession` consumes
  a ``RunOptions`` directly instead of re-declaring the kwarg list;
* the **wire request schema** of the resident mining service
  (:mod:`repro.serve`): :meth:`RunOptions.to_dict` /
  :meth:`RunOptions.from_dict` round-trip the JSON form a client submits
  to a ``repro serve`` daemon.

Fields split into *wire-safe* values (names, numbers, paths — these JSON
round-trip exactly) and *local-only* live objects (an attached
:class:`repro.Tracer`, a shared :class:`repro.MeasurementCache`, an open
checkpoint, a fault plan). Local-only objects are accepted anywhere the
options are used in-process; :meth:`to_dict` refuses to serialize them
so a request can never silently drop configuration on the wire.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.core.aggregation import (
    Aggregation,
    CountAggregation,
    ExistenceAggregation,
    MatchListAggregation,
    MNIAggregation,
)

__all__ = ["RunOptions", "resolve_aggregation"]

#: Wire name -> aggregation factory (the ``Aggregation.name`` values).
AGGREGATIONS: dict[str, type[Aggregation]] = {
    "count": CountAggregation,
    "mni": MNIAggregation,
    "matches": MatchListAggregation,
    "exists": ExistenceAggregation,
}

#: RetryPolicy fields that survive the JSON round-trip (``sleep`` is a
#: callable and stays local).
_RETRY_WIRE_FIELDS = (
    "max_retries",
    "backoff_seconds",
    "backoff_factor",
    "jitter",
    "seed",
)


def resolve_aggregation(spec: "Aggregation | str | None") -> Aggregation:
    """Turn an aggregation spec into a live instance.

    Accepts an :class:`~repro.core.aggregation.Aggregation` instance
    (passed through), a wire name (``"count"``, ``"mni"``, ``"matches"``,
    ``"exists"``), or ``None`` (the counting default).
    """
    if spec is None:
        return CountAggregation()
    if isinstance(spec, Aggregation):
        return spec
    if isinstance(spec, str):
        factory = AGGREGATIONS.get(spec.lower())
        if factory is None:
            raise ValueError(
                f"unknown aggregation {spec!r}; "
                f"choose from {', '.join(sorted(AGGREGATIONS))}"
            )
        return factory()
    raise TypeError(
        f"aggregation must be an Aggregation, a name, or None, got {spec!r}"
    )


@dataclass(frozen=True)
class RunOptions:
    """Frozen, validated configuration for one mining run.

    Construct with keyword arguments, derive variants with
    :meth:`replace`, and serialize the wire-safe form with
    :meth:`to_dict` / :meth:`from_dict`. Validation runs on every
    construction path (including ``replace`` and ``from_dict``), so an
    options object that exists is an options object a session will
    accept.

    Fields mirror the historical ``repro.run()`` keywords one-for-one;
    see :func:`repro.run` for the semantics of each. ``engine`` is the
    registry *name* (the facade's positional ``engine`` argument still
    accepts classes and instances and takes precedence when given).
    """

    engine: str = "peregrine"
    #: ``Aggregation`` instance, wire name, or ``None`` (count).
    aggregation: Any = None
    morph: bool = True
    strategy: str = "auto"
    workers: int = 1
    margin: float = 0.6
    #: Match kernel: ``None`` (default) is the batched frontier kernel in
    #: root chunks of ``DEFAULT_BATCH_ROOTS`` (2048), ``N >= 1`` the same
    #: kernel in chunks of N, ``0`` the per-root reference kernel.
    #: Results are byte-identical either way.
    batch_roots: int | None = None
    #: Positive seconds (wire) or a live armed ``Deadline`` (local only —
    #: lets a supervisor such as a serve-side sentinel cancel the run
    #: externally via ``Deadline.expire``).
    deadline_seconds: Any = None
    #: Checkpoint journal path (wire) or an open ``ShardCheckpoint``.
    checkpoint: Any = None
    #: ``int`` max-retries (wire), a ``RetryPolicy``, or ``None``.
    retry: Any = None
    #: ``FaultPlan`` for deterministic fault injection (local only).
    faults: Any = None
    #: Shared ``MeasurementCache`` (local only).
    cache: Any = None
    #: Shared ``PlanCache`` (local only).
    plan_cache: Any = None
    #: ``None``, a JSONL output path (wire), or a live ``Tracer``.
    trace: Any = None
    #: ``None``/``False``, ``True`` (wire), or a live ``ProgressReporter``.
    progress: Any = None

    # -- validation ---------------------------------------------------------

    def __post_init__(self) -> None:
        from repro.plan.search import STRATEGIES

        if not isinstance(self.engine, str) or not self.engine:
            raise TypeError(
                f"RunOptions.engine must be a registry name string, got "
                f"{self.engine!r}; pass engine instances/classes to "
                "repro.run(..., engine=...) directly"
            )
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise TypeError(f"workers must be an int, got {self.workers!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if not isinstance(self.margin, (int, float)) or self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin!r}")
        if self.batch_roots is not None and (
            not isinstance(self.batch_roots, int) or self.batch_roots < 0
        ):
            raise ValueError(
                f"batch_roots must be >= 0 (0 = per-root kernel), got "
                f"{self.batch_roots!r}"
            )
        if self.deadline_seconds is not None and not self._is_live_deadline(
            self.deadline_seconds
        ):
            if (
                not isinstance(self.deadline_seconds, (int, float))
                or isinstance(self.deadline_seconds, bool)
                or self.deadline_seconds <= 0
            ):
                raise ValueError(
                    f"deadline_seconds must be positive, got "
                    f"{self.deadline_seconds!r}"
                )
        if self.aggregation is not None and not isinstance(
            self.aggregation, (str, Aggregation)
        ):
            raise TypeError(
                f"aggregation must be an Aggregation, a name, or None, "
                f"got {self.aggregation!r}"
            )
        if isinstance(self.aggregation, str):
            resolve_aggregation(self.aggregation)  # raise on unknown names
        if self.retry is not None:
            from repro.engines.recovery import RetryPolicy

            RetryPolicy.resolve(self.retry)  # raises TypeError on bad specs

    @staticmethod
    def _is_live_deadline(value: Any) -> bool:
        """Whether ``value`` is a live ``Deadline`` (local-only)."""
        from repro.engines.recovery import Deadline

        return isinstance(value, Deadline)

    # -- derivation ---------------------------------------------------------

    def replace(self, **changes: Any) -> "RunOptions":
        """A new validated ``RunOptions`` with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    # -- JSON round-trip ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The wire-safe JSON form (the daemon's request schema).

        Raises :class:`ValueError` if a local-only live object (an
        attached tracer or progress reporter, a shared cache, an open
        checkpoint, a fault plan) is set: those cannot cross a process
        boundary and silently dropping them would change behavior.
        """
        local = [
            name
            for name, value in (
                ("faults", self.faults),
                ("cache", self.cache),
                ("plan_cache", self.plan_cache),
            )
            if value is not None
        ]
        aggregation = self.aggregation
        if isinstance(aggregation, Aggregation):
            aggregation = aggregation.name
        checkpoint = self.checkpoint
        if isinstance(checkpoint, Path):
            checkpoint = str(checkpoint)
        elif checkpoint is not None and not isinstance(checkpoint, str):
            local.append("checkpoint")
        retry = self.retry
        if retry is not None and not isinstance(retry, int):
            retry_fields = {
                name: getattr(retry, name, None) for name in _RETRY_WIRE_FIELDS
            }
            if None in retry_fields.values():
                local.append("retry")
            else:
                retry = retry_fields
        trace = self.trace
        if isinstance(trace, Path):
            trace = str(trace)
        elif trace is not None and not isinstance(trace, (str, bool)):
            local.append("trace")
        progress = self.progress
        if progress is not None and not isinstance(progress, bool):
            local.append("progress")
        if self._is_live_deadline(self.deadline_seconds):
            local.append("deadline_seconds")
        if local:
            raise ValueError(
                "RunOptions carries local-only live objects that cannot be "
                f"serialized: {', '.join(sorted(local))}"
            )
        return {
            "engine": self.engine,
            "aggregation": aggregation,
            "morph": self.morph,
            "strategy": self.strategy,
            "workers": self.workers,
            "margin": self.margin,
            "batch_roots": self.batch_roots,
            "deadline_seconds": self.deadline_seconds,
            "checkpoint": checkpoint,
            "retry": retry,
            "trace": trace,
            "progress": bool(progress) if progress is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunOptions":
        """Rebuild options from :meth:`to_dict` output (or a request body).

        Unknown keys are rejected loudly — a misspelled option in a
        daemon request must fail the request, not silently run with
        defaults. Missing keys take their defaults, so sparse request
        bodies (``{"workers": 4}``) are valid.
        """
        if not isinstance(data, Mapping):
            raise TypeError(f"options must be a mapping, got {data!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown RunOptions field(s): {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        values = dict(data)
        retry = values.get("retry")
        if isinstance(retry, Mapping):
            from repro.engines.recovery import RetryPolicy

            unknown_retry = sorted(set(retry) - set(_RETRY_WIRE_FIELDS))
            if unknown_retry:
                raise ValueError(
                    f"unknown retry field(s): {', '.join(unknown_retry)}"
                )
            values["retry"] = RetryPolicy(**dict(retry))
        return cls(**values)

    # -- resolution helpers (consumed by the session and the facade) --------

    def resolved_aggregation(self) -> Aggregation:
        """The live :class:`Aggregation` instance this run aggregates with."""
        return resolve_aggregation(self.aggregation)

    def resolved_batch_roots(self) -> int | None:
        """The kernel setting an engine runs with (``Engine.batch_roots``).

        The one place the default lives: ``None`` resolves to the
        batched kernel at ``DEFAULT_BATCH_ROOTS``, ``0`` to ``None``
        (the engine-level spelling of "per-root"), ``N`` to itself.
        """
        if self.batch_roots is None:
            from repro.engines.frontier import DEFAULT_BATCH_ROOTS

            return DEFAULT_BATCH_ROOTS
        return self.batch_roots or None

    def resolved_tracer(self) -> tuple[Any, Any]:
        """Normalize ``trace`` into ``(tracer, output_path)``.

        ``None``/``False`` → ``(None, None)``; a live ``Tracer`` →
        ``(tracer, None)``; ``True`` → a fresh ``Tracer`` with no output
        path; a path → a fresh ``Tracer`` plus the path the caller
        should write the JSONL trace to after the run.
        """
        from repro.observe.tracer import Tracer

        if self.trace is None or self.trace is False:
            return None, None
        if isinstance(self.trace, Tracer):
            return self.trace, None
        if self.trace is True:
            return Tracer(), None
        return Tracer(), self.trace

    def resolved_progress(self) -> Any:
        """Normalize ``progress`` into a reporter instance or ``None``."""
        from repro.observe.progress import ProgressReporter

        if self.progress is None or self.progress is False:
            return None
        if self.progress is True:
            return ProgressReporter()
        return self.progress
