"""Shard-level checkpoint journal: interrupt a run, resume without rework.

A :class:`ShardCheckpoint` is a JSONL file following the
:mod:`repro.observe.export` conventions — a schema-versioned ``meta``
line, then one self-contained JSON object per record — holding every
**completed shard result** of a run. Records are flushed as each shard
finishes, so a run killed at any point leaves a valid journal; resuming
with the same checkpoint path skips every journaled shard (visible as
``shard.checkpoint`` tracer spans) and recomputes only what is missing.

Record layout::

    {"type": "meta", "format_version": 2, "graph": ..., "fingerprint":
     ..., "num_vertices": ..., "num_edges": ..., "engine": ...,
     "aggregation": ...}
    {"type": "shard", "key": "<pattern key>", "lo": 0, "hi": 17,
     "index": 0, "value": "<base64 pickle>", "stats": "<base64 pickle>",
     "sha256": "<digest of value+stats payloads>"}

Shard values (MNI tables, match lists) and :class:`EngineStats` are not
JSON-native, so both ship as base64-wrapped pickles guarded by a
SHA-256 digest: a tampered or truncated record fails the digest check
and is **dropped with a warning** (the shard is recomputed) rather than
poisoning the resumed run. A meta line that disagrees with the resuming
run's configuration raises :class:`repro.errors.CheckpointError` — a
checkpoint never silently mixes two different runs. ``fingerprint`` is
the content hash of the graph the kernel ran on
(:attr:`repro.graph.datagraph.DataGraph.fingerprint`): shard windows are
id ranges, so a journal answers only for the exact graph, in the exact
numbering, that wrote it — not for another graph with the same name and
size (a rewired one keeps both), nor for the same graph under other ids.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import warnings
from typing import Any

from repro.errors import CheckpointError

__all__ = ["CHECKPOINT_FORMAT_VERSION", "ShardCheckpoint"]

#: Format version stamped into (and required of) every journal's meta line.
#: Version 1 journals carry no ``fingerprint`` and are refused.
CHECKPOINT_FORMAT_VERSION = 2

#: Meta fields that must match between the journal and the resuming run.
_IDENTITY_FIELDS = (
    "graph",
    "fingerprint",
    "num_vertices",
    "num_edges",
    "engine",
    "aggregation",
)


def _pack(obj: Any) -> str:
    return base64.b64encode(pickle.dumps(obj, protocol=4)).decode("ascii")


def _unpack(payload: str) -> Any:
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


def _digest(value_payload: str, stats_payload: str) -> str:
    h = hashlib.sha256()
    h.update(value_payload.encode("ascii"))
    h.update(b"\x00")
    h.update(stats_payload.encode("ascii"))
    return h.hexdigest()


class ShardCheckpoint:
    """Append-only journal of completed shard results, keyed for resume.

    ``meta`` identifies the run (graph/engine/aggregation); opening an
    existing journal with different identity raises
    :class:`CheckpointError`. Lookup keys are
    ``(pattern_key, lo, hi)`` — the shard windows themselves are part of
    the key, so resuming with a different shard split simply misses and
    recomputes (never mis-attributes a window).
    """

    def __init__(self, path: str | os.PathLike, meta: dict[str, Any] | None = None):
        self.path = os.fspath(path)
        self.meta = dict(meta or {})
        self._entries: dict[tuple[str, int, int], tuple[Any, Any]] = {}
        self._fh = None
        self._load_existing()
        self._open_for_append()

    # -- loading -----------------------------------------------------------

    def _load_existing(self) -> None:
        if not os.path.exists(self.path):
            return
        dropped = 0
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A torn final line is the normal signature of a run
                    # killed mid-write; anything else is still just a
                    # record-level loss — drop it, recompute that shard.
                    dropped += 1
                    continue
                kind = record.get("type")
                if kind == "meta":
                    self._check_meta(record)
                elif kind == "shard":
                    if not self._load_shard_record(record):
                        dropped += 1
        if dropped:
            warnings.warn(
                f"checkpoint {self.path}: dropped {dropped} corrupt or torn "
                "record(s); the affected shards will be recomputed",
                RuntimeWarning,
                stacklevel=3,
            )

    def _check_meta(self, record: dict[str, Any]) -> None:
        version = record.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has format_version {version!r}; "
                f"this build reads version {CHECKPOINT_FORMAT_VERSION}"
            )
        for field in _IDENTITY_FIELDS:
            if field not in self.meta or field not in record:
                continue
            if record[field] != self.meta[field]:
                raise CheckpointError(
                    f"checkpoint {self.path} was written for "
                    f"{field}={record[field]!r} but this run has "
                    f"{field}={self.meta[field]!r}; refusing to mix runs "
                    "(delete the file or pass a fresh --checkpoint path)"
                )

    def _load_shard_record(self, record: dict[str, Any]) -> bool:
        try:
            key = (str(record["key"]), int(record["lo"]), int(record["hi"]))
            value_payload = record["value"]
            stats_payload = record["stats"]
            if _digest(value_payload, stats_payload) != record["sha256"]:
                return False
            self._entries[key] = (_unpack(value_payload), _unpack(stats_payload))
            return True
        except (KeyError, TypeError, ValueError, pickle.UnpicklingError):
            return False

    # -- writing -----------------------------------------------------------

    def _open_for_append(self) -> None:
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        self._fh = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write_record(
                {
                    "type": "meta",
                    "format_version": CHECKPOINT_FORMAT_VERSION,
                    **self.meta,
                }
            )

    def _write_record(self, record: dict[str, Any]) -> None:
        assert self._fh is not None, "checkpoint is closed"
        self._fh.write(json.dumps(record, sort_keys=True))
        self._fh.write("\n")
        # Flushed per record: a parent killed between shards still
        # leaves every completed shard on disk.
        self._fh.flush()

    # -- the journal API ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, pattern_key: str, shard: tuple[int, int]
    ) -> tuple[Any, Any] | None:
        """Journaled ``(value, stats)`` for a shard, or ``None``."""
        return self._entries.get((pattern_key, int(shard[0]), int(shard[1])))

    def put(
        self,
        pattern_key: str,
        shard: tuple[int, int],
        index: int,
        value: Any,
        stats: Any,
    ) -> None:
        """Journal one completed shard (idempotent per key)."""
        key = (pattern_key, int(shard[0]), int(shard[1]))
        if key in self._entries:
            return
        self._entries[key] = (value, stats)
        if self._fh is None:
            return
        value_payload = _pack(value)
        stats_payload = _pack(stats)
        self._write_record(
            {
                "type": "shard",
                "key": pattern_key,
                "lo": int(shard[0]),
                "hi": int(shard[1]),
                "index": int(index),
                "value": value_payload,
                "stats": stats_payload,
                "sha256": _digest(value_payload, stats_payload),
            }
        )

    def close(self) -> None:
        """Close the journal's file handle (entries stay queryable)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ShardCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
