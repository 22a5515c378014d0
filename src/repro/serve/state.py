"""Service state persistence: drain to disk, reboot warm.

A graceful drain is only half of a restart story — the daemon's value
is its *warm state* (resident graphs, a result cache full of answered
queries), and losing it on every deploy means every restart is a cold
start for every client. This module persists the recoverable subset of
that state as a JSONL journal at drain time and reloads it on
``repro serve --resume``:

* the **registry manifest** — the *names* the resident graphs were
  loaded under (dataset names/codes or edge-list paths), which is all
  :meth:`~repro.serve.registry.GraphRegistry.load` needs to rebuild
  them; the CSR arrays themselves are process-lifetime objects and are
  deliberately rebuilt, not serialized;
* the **result-cache journal** — every completed (non-partial) response
  keyed by the same (fingerprint, patterns, options) identity the live
  cache uses, so a resumed daemon answers repeat queries from cache
  immediately. Fingerprints ride in the key: a graph whose data changed
  between incarnations simply never matches.

The format is line-oriented JSON with a versioned meta header, so a
partially written journal (the daemon died mid-flush) degrades to
"fewer cache entries", never to corruption: each line is parsed
independently and bad lines are counted and skipped.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["ServiceState", "load_service_state", "save_service_state"]

SERVICE_STATE_VERSION = 1

#: Cache-key tuple fields, in tuple order (mirrors
#: ``MiningServer._cache_key``). The wire form is a dict keyed by these
#: names so the journal stays self-describing and diffable.
_KEY_FIELDS = (
    "fingerprint",
    "patterns",
    "aggregation",
    "engine",
    "strategy",
    "morph",
    "margin",
    "workers",
    "batch_roots",
)


def cache_key_to_wire(key: tuple) -> dict[str, Any]:
    """The dict (JSON) form of one result-cache key tuple."""
    if len(key) != len(_KEY_FIELDS):
        raise ValueError(
            f"cache key has {len(key)} fields, expected {len(_KEY_FIELDS)}"
        )
    wire = dict(zip(_KEY_FIELDS, key))
    wire["patterns"] = list(wire["patterns"])
    return wire


def wire_to_cache_key(wire: Mapping[str, Any]) -> tuple:
    """Rebuild the cache-key tuple from its :func:`cache_key_to_wire` form."""
    missing = [name for name in _KEY_FIELDS if name not in wire]
    if missing:
        raise ValueError(f"cache key missing field(s): {', '.join(missing)}")
    values = dict(wire)
    values["patterns"] = tuple(str(p) for p in values["patterns"])
    return tuple(values[name] for name in _KEY_FIELDS)


@dataclass
class ServiceState:
    """One loaded (or about-to-be-saved) service-state journal."""

    meta: dict[str, Any] = field(default_factory=dict)
    #: Graph names in registry-load order.
    graphs: list[str] = field(default_factory=list)
    #: Result-cache entries: key tuple -> cached response payload.
    results: dict[tuple, dict] = field(default_factory=dict)
    #: Journal lines that failed to parse on load (corruption tally).
    skipped: int = 0


def save_service_state(
    path: str,
    graphs: list[str],
    result_cache: Mapping[tuple, dict],
    meta: Mapping[str, Any] | None = None,
) -> int:
    """Write the journal atomically; the number of entries written.

    Atomic via write-to-temp + ``os.replace``, so a crash mid-save
    leaves the previous journal intact rather than a truncated one.
    """
    header: dict[str, Any] = {
        "kind": "meta",
        "version": SERVICE_STATE_VERSION,
        "graphs": len(graphs),
        "results": len(result_cache),
    }
    if meta:
        header.update(meta)
    tmp_path = f"{path}.tmp"
    entries = 0
    with open(tmp_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for name in graphs:
            fh.write(
                json.dumps({"kind": "graph", "name": name}, sort_keys=True)
                + "\n"
            )
            entries += 1
        for key, response in result_cache.items():
            record = {
                "kind": "result",
                "key": cache_key_to_wire(key),
                "response": response,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            entries += 1
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, path)
    return entries


def load_service_state(path: str) -> ServiceState:
    """Parse a journal; tolerant of torn tails (bad lines are counted).

    Raises :class:`FileNotFoundError` when the journal does not exist —
    resuming from nothing is a caller decision, not a silent no-op —
    and :class:`ValueError` when the version header is from a future
    incarnation of the format.
    """
    state = ServiceState()
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("journal line is not an object")
            kind = record.get("kind")
            if kind == "meta":
                version = int(record.get("version", -1))
                if version > SERVICE_STATE_VERSION:
                    raise _FutureVersion(
                        f"service state journal version {version} is newer "
                        f"than supported ({SERVICE_STATE_VERSION})"
                    )
                state.meta = {
                    k: v for k, v in record.items() if k != "kind"
                }
            elif kind == "graph":
                state.graphs.append(str(record["name"]))
            elif kind == "result":
                key = wire_to_cache_key(record["key"])
                response = record["response"]
                if not isinstance(response, dict):
                    raise ValueError("result response is not an object")
                state.results[key] = response
            else:
                raise ValueError(f"unknown journal record kind {kind!r}")
        except _FutureVersion:
            raise
        except (ValueError, KeyError, TypeError):
            state.skipped += 1
            continue
    return state


class _FutureVersion(ValueError):
    """A journal written by a newer format version (never skipped)."""
