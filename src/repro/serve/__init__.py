"""Resident mining service: load graphs once, answer many queries.

A cold ``repro.run()`` pays graph construction and plan search on
every call. The service keeps both resident: a :class:`GraphRegistry`
holds loaded graphs, a server-owned :class:`repro.PlanCache` /
:class:`repro.MeasurementCache` pair carries planning and measurement
work across queries, and a result cache returns byte-identical payloads
for repeat queries without touching the engines at all. Every cache
tier is bounded (:class:`repro.morph.cache.BoundedStore`). A sharded
query (``workers > 1``) runs its shards on threads over the resident
graph.

Topology::

    repro serve  ──  MiningServer (JSON-lines over TCP)
                       ├── GraphRegistry       resident graphs, built once per name
                       ├── QueryScheduler      admission + priority-ordered slots
                       └── connection threads  MorphingSession per query,
                                               once its slot is granted

    repro.connect(port=...)  ──  Client.run(graph, patterns, options)

The wire request schema is :meth:`repro.RunOptions.to_dict` — the same
object that configures an in-process run configures a remote one. A
field left out, or the whole ``options`` object, reads as its default.

Live observability: every run response carries a daemon-minted
``query_id`` stamped into the query's whole span tree, the ``stats``
op returns a versioned snapshot (latency histogram quantiles,
queue-depth window, flight-recorder occupancy — checked by
:func:`validate_stats`), the :class:`FlightRecorder` retains recent
and anomalous query traces for the ``dump`` op / ``SIGUSR1``, and
``repro top <port>`` (:class:`TopDashboard`) renders the whole thing
live.

Robustness (schema v3): an adaptive :class:`ShedController` rejects
low-priority work (``rejected:overload`` with a ``retry_after_s`` hint)
when the live p99 breaks its SLO or the queue is deadline-infeasible,
a :class:`SentinelBoard` watches every executing query's wall-clock and
RSS budgets and cancels runaways through the normal deadline path,
per-(graph, engine) :class:`CircuitBreaker` cells fail crash loops fast
(``rejected:circuit-open``), and SIGTERM/:meth:`MiningServer.drain`
stops admission, finishes in-flight work under a drain deadline, dumps
the flight recorder and persists service state so ``repro serve
--resume`` reboots warm. :class:`Client` retries retryable verdicts and
torn connections under a seeded-jitter :class:`repro.RetryPolicy`,
with idempotency keys so a retried query replays the stored answer
byte-identically.
"""

from repro.serve.breaker import (
    REJECTED_CIRCUIT_OPEN,
    BreakerBoard,
    CircuitBreaker,
)
from repro.serve.client import Client, ServeRejected, ServeResult, connect
from repro.serve.flightrecorder import FlightRecord, FlightRecorder
from repro.serve.protocol import decode_value, encode_value, validate_stats
from repro.serve.registry import GraphRegistry, ResidentGraph
from repro.serve.scheduler import (
    REJECTED_DRAINING,
    AdmissionPolicy,
    Query,
    QueryScheduler,
)
from repro.serve.sentinel import QuerySentinel, SentinelBoard
from repro.serve.server import MiningServer
from repro.serve.shed import REJECTED_OVERLOAD, ShedController, ShedDecision
from repro.serve.state import (
    ServiceState,
    load_service_state,
    save_service_state,
)
from repro.serve.top import TopDashboard

__all__ = [
    "AdmissionPolicy",
    "BreakerBoard",
    "CircuitBreaker",
    "Client",
    "FlightRecord",
    "FlightRecorder",
    "GraphRegistry",
    "MiningServer",
    "Query",
    "QueryScheduler",
    "QuerySentinel",
    "REJECTED_CIRCUIT_OPEN",
    "REJECTED_DRAINING",
    "REJECTED_OVERLOAD",
    "ResidentGraph",
    "SentinelBoard",
    "ServeRejected",
    "ServeResult",
    "ServiceState",
    "ShedController",
    "ShedDecision",
    "TopDashboard",
    "connect",
    "decode_value",
    "encode_value",
    "load_service_state",
    "save_service_state",
    "validate_stats",
]
