"""Thin client for the resident mining service.

``repro.connect(port=...)`` returns a :class:`Client` whose
:meth:`Client.run` mirrors :func:`repro.run`: same
:class:`repro.RunOptions` configuration, same typed result values
(``int`` counts, MNI frozenset tuples, ordered match lists, ``bool``
existence) keyed by the caller's own :class:`repro.Pattern` objects —
the only visible difference is that the graph lives in the daemon and
is named, not passed.

Resilience: with a retry policy configured (``retry=`` — an ``int`` or
a full :class:`repro.RetryPolicy`), :meth:`Client.run` survives the
transient failures a hardened daemon *intentionally* produces — typed
``rejected:overload`` / ``rejected:circuit-open`` verdicts (honoring
their ``retry_after_s`` hints), torn connections, unparsable response
frames, per-request socket timeouts — using the same seeded-jitter
exponential backoff the batch layer uses for shard retries, so a test
with a fixed seed replays the exact same schedule. Each logical call
carries an **idempotency key**: if attempt 0's response was lost on the
wire after the daemon completed the query, the retry replays the stored
response instead of re-mining (and the answer stays byte-identical).
Permanent rejections (``rejected:deadline``, unknown graphs, …) raise
:class:`ServeRejected` / :class:`RuntimeError` immediately — retrying
them would never succeed.

Connections: each calling thread keeps one persistent connection to
the daemon, opened on its first request. Any transport error, timeout,
EOF or unparsable frame drops that connection and surfaces unchanged
(the retry policy above owns recovery); a connection the daemon hung
up *between* requests is noticed before anything is sent and reopened
transparently. A request whose bytes were written is never resent by
the connection layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import select
import socket
import threading
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.parser import format_pattern
from repro.core.pattern import Pattern
from repro.engines.recovery import RetryPolicy
from repro.options import RunOptions
from repro.serve import protocol

__all__ = ["Client", "ServeRejected", "ServeResult", "connect"]

#: Admission verdicts worth retrying: the condition is load, not the
#: request — backing off and retrying is the designed client response.
_RETRYABLE_VERDICTS = (
    "rejected:overload",
    "rejected:circuit-open",
    "rejected:queue-full",
)

#: Server-side error families worth retrying: a worker crash is a
#: transient execution failure (a crash *loop* opens the circuit
#: breaker, which surfaces as a retryable verdict instead).
_RETRYABLE_ERRORS = ("WorkerCrashError",)


class ServeRejected(RuntimeError):
    """The daemon rejected a request with a typed admission verdict.

    ``verdict`` is the ``rejected:*`` string; ``retry_after_s`` carries
    the daemon's backoff hint when one was offered (overload and
    circuit-open verdicts), else ``None``. ``retryable`` tells the
    retry loop (and callers) whether waiting can help.
    """

    def __init__(
        self,
        op: str,
        verdict: str,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(f"server rejected {op!r}: {verdict}")
        self.op = op
        self.verdict = verdict
        self.retry_after_s = retry_after_s

    @property
    def retryable(self) -> bool:
        """Whether this verdict can clear up by waiting and retrying."""
        return self.verdict in _RETRYABLE_VERDICTS


@dataclass
class ServeResult:
    """One remote run's answer, reshaped to the in-process contract.

    ``results`` is keyed by the caller's own :class:`Pattern` objects
    (exactly like :attr:`repro.MorphRunResult.results`), so code
    consuming an in-process result consumes a remote one unchanged.
    """

    results: dict[Pattern, Any]
    #: ``True`` when the daemon answered from its result cache.
    cached: bool = False
    #: ``True`` for a deadline-degraded (incomplete) answer.
    partial: bool = False
    #: Completed-shard coverage for partial answers (1.0 otherwise).
    coverage: float = 1.0
    #: Per-phase timing reported by the daemon.
    seconds: dict[str, float] = field(default_factory=dict)
    #: Service-contract metrics (``plan.cache.hit`` / ``plan.cache.miss``).
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Daemon-minted id of this query — the handle for finding its
    #: trace in the flight recorder (``stats``/``dump`` ops).
    query_id: str | None = None
    #: Which resource sentinel cancelled the query (``"wall-budget"`` /
    #: ``"rss-budget"``), or ``None`` when no budget tripped.
    sentinel: str | None = None


class _Connection:
    """One socket and its stream, owned by one thread of one process."""

    def __init__(self, sock: socket.socket) -> None:
        self.pid = os.getpid()
        self.sock = sock
        self.stream = sock.makefile("rwb")
        # ``poll`` has no descriptor-number limit; Windows has only
        # ``select``.
        self._poll = None
        if hasattr(select, "poll"):
            self._poll = select.poll()
            self._poll.register(sock, select.POLLIN)

    def reusable(self) -> bool:
        """Whether a request may be sent on this connection now.

        Never in a process other than the one that opened it (a forked
        child would interleave frames with its parent). Between requests
        nothing may be readable: a readable socket has either seen the
        daemon's hang-up (EOF) or holds bytes nobody asked for.
        """
        if self.pid != os.getpid():
            return False
        if self._poll is not None:
            return not self._poll.poll(0)
        return not select.select([self.sock], [], [], 0)[0]

    def close(self) -> None:
        # In a forked child this closes only the child's copy of the
        # descriptor; the parent's connection stays up.
        with contextlib.suppress(OSError):
            self.stream.close()
        self.sock.close()

    __del__ = close


class Client:
    """A connection to one ``repro serve`` daemon.

    Thread-safe by construction: every calling thread gets its own
    persistent connection (kept in a ``threading.local``), so concurrent
    callers never interleave frames, and repeat requests from one thread
    pay no TCP handshake. See the module docstring for when a
    connection is dropped or reopened.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        client_id: str = "anonymous",
        timeout: float | None = 60.0,
        retry: RetryPolicy | int | None = None,
    ) -> None:
        if port <= 0:
            raise ValueError(f"port must be a bound server port, got {port!r}")
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        #: ``None`` (no retries — the pre-hardening behavior), an int
        #: (max retries with default backoff), or a full policy.
        self.retry = None if retry is None else RetryPolicy.resolve(retry)
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._local = threading.local()

    def _connection(self) -> _Connection:
        """The calling thread's connection, (re)opened when unusable."""
        connection = getattr(self._local, "connection", None)
        if connection is not None and not connection.reusable():
            connection.close()
            connection = None
        if connection is None:
            connection = _Connection(
                socket.create_connection((self.host, self.port), timeout=self.timeout)
            )
            self._local.connection = connection
        return connection

    def _request(self, payload: dict) -> dict:
        """One request/response exchange on the thread's connection."""
        connection = self._connection()
        try:
            protocol.write_message(connection.stream, payload)
            response = protocol.read_message(connection.stream)
            if response is None:
                raise ConnectionError("server closed the connection mid-request")
        except BaseException:
            # Whatever broke the exchange (transport error, timeout,
            # EOF, a corrupt frame) leaves the stream in an unknown
            # state: the next request starts on a new connection.
            self._local.connection = None
            connection.close()
            raise
        return response

    def _checked(self, payload: dict) -> dict:
        response = self._request(payload)
        if not response.get("ok"):
            error = str(response.get("error", "unknown error"))
            if error.startswith("rejected:"):
                retry_after = response.get("retry_after_s")
                raise ServeRejected(
                    str(payload.get("op")),
                    error,
                    retry_after_s=(
                        float(retry_after) if retry_after is not None else None
                    ),
                )
            raise RuntimeError(
                f"server rejected {payload.get('op')!r}: {error}"
            )
        return response

    def _checked_with_retry(self, payload: dict) -> dict:
        """``_checked`` under the client's retry policy (if any).

        Retryable: transient transport failures (torn connection,
        timeout, unparsable frame) and retryable admission verdicts.
        The wait before attempt ``n`` is the seeded-jitter backoff —
        raised to the server's ``retry_after_s`` hint when the daemon
        offered one, because the daemon knows its backlog better than
        an exponential schedule does.
        """
        policy = self.retry
        if policy is None:
            return self._checked(payload)
        last_error: Exception | None = None
        for attempt in range(policy.max_retries + 1):
            try:
                return self._checked(payload)
            except ServeRejected as exc:
                if not exc.retryable or attempt >= policy.max_retries:
                    raise
                last_error = exc
                delay = policy.delay(0, attempt)
                if exc.retry_after_s is not None:
                    delay = max(delay, exc.retry_after_s)
            except RuntimeError as exc:
                # Typed server-side errors: only the transient families
                # (worker crashes) are worth another attempt.
                if attempt >= policy.max_retries or not any(
                    token in str(exc) for token in _RETRYABLE_ERRORS
                ):
                    raise
                last_error = exc
                delay = policy.delay(0, attempt)
            except (ConnectionError, socket.timeout, OSError, ValueError) as exc:
                # Torn socket, refused/reset connection, per-request
                # timeout, or a corrupt (unparsable) response frame.
                if attempt >= policy.max_retries:
                    raise
                last_error = exc
                delay = policy.delay(0, attempt)
            policy.sleep(delay)
        raise last_error if last_error is not None else AssertionError(
            "retry loop exited without an outcome"
        )  # pragma: no cover - loop always returns or raises

    # -- protocol ops --------------------------------------------------------

    def ping(self) -> bool:
        """``True`` iff the daemon answers."""
        return bool(self._checked({"op": "ping"}).get("pong"))

    def graphs(self) -> list[dict]:
        """Summaries of the graphs currently resident in the daemon."""
        return self._checked({"op": "graphs"})["graphs"]

    def load(self, name: str) -> dict:
        """Load ``name`` (dataset name/code or edge-list path) remotely."""
        return self._checked({"op": "load", "graph": name})["graph"]

    def stats(self) -> dict:
        """The daemon's versioned observability snapshot.

        Metrics, latency histogram quantiles, the queue-depth window,
        scheduler/cache state and flight-recorder occupancy — the
        schema :func:`repro.serve.validate_stats` checks.
        """
        return self._checked({"op": "stats"})

    def health(self) -> dict:
        """Cheap liveness probe: status, uptime, query count, depth."""
        return self._checked({"op": "health"})

    def dump(self, directory: str | None = None) -> dict:
        """Ask the daemon to dump its flight recorder to ``directory``.

        Returns ``{"dir": ..., "files": [...]}`` — JSONL and Chrome
        traces for every retained query plus an ``index.json``. With
        ``directory=None`` the daemon picks a temp directory (and
        reports it back).
        """
        payload: dict[str, Any] = {"op": "dump"}
        if directory is not None:
            payload["dir"] = str(directory)
        return self._checked(payload)

    def shutdown(self) -> None:
        """Ask the daemon to stop (idempotent; returns once acknowledged)."""
        self._checked({"op": "shutdown"})

    def _next_idempotency_key(self, payload: dict) -> str:
        """A deterministic per-call idempotency key (no RNG).

        ``<client>:<seq>:<digest>`` — the per-client sequence separates
        deliberate repeats of the same query, and the request digest
        keeps a collision across client instances sharing an id
        harmless (identical key implies identical request).
        """
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        ).hexdigest()[:16]
        return f"{self.client_id}:{seq}:{digest}"

    def run(
        self,
        graph: str,
        patterns: Sequence[Pattern] | Pattern,
        options: RunOptions | None = None,
        priority: int = 0,
        use_result_cache: bool = True,
        chaos_index: int | None = None,
    ) -> ServeResult:
        """Mine ``patterns`` on the resident graph named ``graph``.

        ``options`` is the same :class:`repro.RunOptions` an in-process
        run takes; it must be wire-safe (``options.to_dict()`` raises on
        local-only live objects before anything is sent). ``priority``
        orders this query against others queued in the daemon (higher
        first); admission rejections surface as :class:`ServeRejected`
        with the verdict (``rejected:queue-full``,
        ``rejected:client-limit``, ``rejected:deadline``,
        ``rejected:overload``, ``rejected:circuit-open``,
        ``rejected:draining``). With a retry policy configured,
        retryable failures back off and retry under a per-call
        idempotency key (see the module docstring); ``chaos_index``
        tags the request for a server-side
        :class:`repro.testing.faults.QueryFaultPlan`.
        """
        if isinstance(patterns, Pattern):
            patterns = [patterns]
        patterns = list(patterns)
        texts = [format_pattern(p) for p in patterns]
        payload: dict[str, Any] = {
            "op": "run",
            "graph": graph,
            "patterns": texts,
            "options": (options or RunOptions()).to_dict(),
            "client": self.client_id,
            "priority": priority,
            "use_result_cache": use_result_cache,
        }
        if chaos_index is not None:
            payload["chaos_index"] = int(chaos_index)
        if self.retry is not None:
            payload["idempotency_key"] = self._next_idempotency_key(payload)
        response = self._checked_with_retry(payload)
        by_text = response.get("results", {})
        results = {
            pattern: protocol.decode_value(by_text.get(text))
            for text, pattern in zip(texts, patterns)
        }
        return ServeResult(
            results=results,
            cached=bool(response.get("cached", False)),
            partial=bool(response.get("partial", False)),
            coverage=float(response.get("coverage", 1.0)),
            seconds=dict(response.get("seconds", {})),
            metrics=dict(response.get("metrics", {})),
            query_id=response.get("query_id"),
            sentinel=response.get("sentinel"),
        )


def connect(
    port: int,
    host: str = "127.0.0.1",
    client_id: str = "anonymous",
    timeout: float | None = 60.0,
    retry: RetryPolicy | int | None = None,
) -> Client:
    """Connect to a ``repro serve`` daemon and verify it answers.

    The returned :class:`Client` is ready to use::

        client = repro.connect(port=7071)
        client.load("mico")
        result = client.run("mico", [repro.Pattern.clique(3)])

    ``timeout`` bounds each request on the wire; ``retry`` (an ``int``
    or a :class:`repro.RetryPolicy`) turns on client-side resilience —
    see :class:`Client`.
    """
    client = Client(
        host=host, port=port, client_id=client_id, timeout=timeout, retry=retry
    )
    client.ping()
    return client
