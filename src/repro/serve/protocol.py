"""Wire protocol of the resident mining service.

JSON-lines over a stream socket: every message is one JSON object on
one ``\\n``-terminated line, UTF-8. Requests carry an ``op`` field;
responses carry ``ok`` (``true``/``false``) plus op-specific payload or
an ``error`` string. The framing is deliberately boring — any language
with a socket and a JSON parser is a client.

Aggregation values are *typed* Python objects (``int`` counts, ``bool``
existence, ``list[tuple]`` match lists, ``tuple[frozenset]`` MNI
tables) that plain JSON would flatten into indistinguishable arrays.
:func:`encode_value` / :func:`decode_value` wrap compound values in
``{"t": <kind>, "v": [...]}`` tags so the client reconstructs the
exact type — a remote result compares ``==`` to the in-process one.
"""

from __future__ import annotations

import json
from typing import Any, BinaryIO

__all__ = [
    "decode_value",
    "encode_value",
    "read_message",
    "validate_stats",
    "write_message",
]

#: Tag names for the compound types that must survive the round-trip.
_TAGS = ("tuple", "list", "frozenset", "set", "dict")

#: Version stamped into every ``stats`` response. Bumped whenever the
#: snapshot's shape changes so dashboards and scrapers can detect a
#: daemon speaking a different schema instead of mis-parsing it.
#: Version 2 added: ``schema_version``, ``histograms``, ``queue``
#: (window-gauge envelope), ``flight`` (recorder occupancy + recent
#: anomalies) and per-query latency distributions. Version 3 added the
#: robustness sections: ``service`` (drain state machine),
#: ``shed`` (overload controller), ``breakers`` (per-(graph, engine)
#: circuit-breaker states) and ``sentinels`` (watchdog budgets/trips).
STATS_SCHEMA_VERSION = 3

#: ``stats`` snapshot contract: required key -> required type(s).
_STATS_SCHEMA: dict[str, type | tuple[type, ...]] = {
    "schema_version": int,
    "metrics": dict,
    "scheduler": dict,
    "graphs": list,
    "result_cache_entries": int,
    "plan_cache": dict,
    "uptime_seconds": (int, float),
    "histograms": dict,
    "queue": dict,
    "flight": dict,
    "service": dict,
    "shed": dict,
    "breakers": dict,
    "sentinels": dict,
}

#: Drain state machine values the ``service`` section may report.
_SERVICE_STATES = ("accepting", "draining", "closed")


def validate_stats(snapshot: dict) -> dict:
    """Check a ``stats`` response against the version-3 schema.

    Raises :class:`ValueError` naming every violation at once (missing
    or mistyped top-level keys, malformed histogram summaries, a
    flight-recorder section without occupancy fields, robustness
    sections missing their state fields); returns the snapshot
    unchanged when it validates, so callers can chain it.
    """
    problems: list[str] = []
    for key, expected in _STATS_SCHEMA.items():
        if key not in snapshot:
            problems.append(f"missing key {key!r}")
        elif not isinstance(snapshot[key], expected):
            problems.append(
                f"key {key!r} should be {expected}, "
                f"got {type(snapshot[key]).__name__}"
            )
    if not problems:
        if snapshot["schema_version"] != STATS_SCHEMA_VERSION:
            problems.append(
                f"schema_version {snapshot['schema_version']!r} != "
                f"{STATS_SCHEMA_VERSION}"
            )
        for name, summary in snapshot["histograms"].items():
            if not isinstance(summary, dict) or "count" not in summary:
                problems.append(f"histogram {name!r} has no count")
            elif summary["count"] > 0 and not all(
                q in summary for q in ("p50", "p90", "p99", "max")
            ):
                problems.append(f"histogram {name!r} is missing quantiles")
        for key in ("last", "min", "max", "samples"):
            if key not in snapshot["queue"]:
                problems.append(f"queue window is missing {key!r}")
        for key in ("recorded", "recent", "capacity", "anomalies"):
            if key not in snapshot["flight"]:
                problems.append(f"flight section is missing {key!r}")
        if snapshot["service"].get("state") not in _SERVICE_STATES:
            problems.append(
                f"service state {snapshot['service'].get('state')!r} not in "
                f"{_SERVICE_STATES}"
            )
        for key in ("shed_total", "by_reason", "slo_p99"):
            if key not in snapshot["shed"]:
                problems.append(f"shed section is missing {key!r}")
        for cell, breaker in snapshot["breakers"].items():
            if not isinstance(breaker, dict) or "state" not in breaker:
                problems.append(f"breaker {cell!r} has no state")
        for key in ("active", "trips"):
            if key not in snapshot["sentinels"]:
                problems.append(f"sentinels section is missing {key!r}")
    if problems:
        raise ValueError(
            "stats snapshot violates schema: " + "; ".join(problems)
        )
    return snapshot


def encode_value(value: Any) -> Any:
    """Encode an aggregation value into its tagged JSON form.

    Scalars (``int``, ``float``, ``str``, ``bool``, ``None``) pass
    through; tuples, lists, frozensets and sets become
    ``{"t": kind, "v": [...]}`` with elements encoded recursively.
    Set-likes are emitted in sorted order so the encoding — and hence
    the service's result cache and any on-the-wire comparison — is
    deterministic regardless of construction order.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"t": "tuple", "v": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"t": "list", "v": [encode_value(v) for v in value]}
    if isinstance(value, (frozenset, set)):
        kind = "frozenset" if isinstance(value, frozenset) else "set"
        try:
            elements = sorted(value)
        except TypeError:
            elements = sorted(value, key=repr)
        return {"t": kind, "v": [encode_value(v) for v in elements]}
    if isinstance(value, dict):
        return {
            "t": "dict",
            "v": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    raise TypeError(f"cannot encode {type(value).__name__} value {value!r}")


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`: rebuild the exact Python type."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        tag = value.get("t")
        if tag not in _TAGS or "v" not in value:
            raise ValueError(f"malformed tagged value: {value!r}")
        items = value["v"]
        if tag == "tuple":
            return tuple(decode_value(v) for v in items)
        if tag == "list":
            return [decode_value(v) for v in items]
        if tag == "frozenset":
            return frozenset(decode_value(v) for v in items)
        if tag == "set":
            return {decode_value(v) for v in items}
        return {decode_value(k): decode_value(v) for k, v in items}
    raise ValueError(f"cannot decode {value!r}")


def write_message(stream: BinaryIO, message: dict) -> None:
    """Write one JSON-lines message — a single ``write`` — and flush.

    Sockets are unbuffered here, so payload and newline must leave in
    one segment: split across two writes, a reused connection stalls on
    Nagle's algorithm waiting for the peer's delayed ACK (~40 ms a
    message).
    """
    stream.write(json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n")
    stream.flush()


def read_message(stream: BinaryIO) -> dict | None:
    """Read one JSON-lines message; ``None`` on a closed stream."""
    line = stream.readline()
    if not line:
        return None
    text = line.decode("utf-8").strip()
    if not text:
        return None
    message = json.loads(text)
    if not isinstance(message, dict):
        raise ValueError(f"protocol messages are JSON objects, got {text[:80]!r}")
    return message
