"""Streaming latency histograms and windowed gauges for live services.

The offline telemetry (PR 3) measures one run exactly; a resident
daemon needs *distributions* over thousands of queries without keeping
them. :class:`StreamingHistogram` is the standard trick production
systems use: fixed log-spaced bucket boundaries chosen once at
construction, so the record path is one logarithm, one ``int()`` and
one array increment — no allocation, no sort, no sample retention — and
two histograms with the same boundaries merge by adding counts (shard
registries fold into the server registry exactly like counters do).

Quantiles come from the bucket counts by interpolating inside the
bucket that crosses the requested rank. With the default layout
(10 buckets per decade across 1µs..10ks) the relative error of any
quantile is bounded by the bucket width — under 26% — which is far
tighter than the order-of-magnitude skew the dashboard exists to
surface (Peregrine reports per-pattern exploration times spread over
several decades).

:class:`WindowGauge` fixes the companion blind spot: a plain
last-write-wins gauge sampled at admission time only shows whatever the
queue depth happened to be at the last submit. The window gauge keeps
``last``/``min``/``max``/``sample count`` *since the previous read*, so
a stats snapshot reports the envelope of the depth between polls, not a
point sample.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Sequence

__all__ = ["StreamingHistogram", "WindowGauge"]

#: Default bucket layout: 10 log-spaced buckets per decade spanning
#: 1 microsecond to 10,000 seconds — every latency a mining query can
#: plausibly exhibit, from a result-cache hit to a multi-hour scan.
DEFAULT_LO = 1e-6
DEFAULT_HI = 1e4
DEFAULT_BUCKETS_PER_DECADE = 10

_log10 = math.log10


class StreamingHistogram:
    """Fixed-boundary log-bucketed histogram with O(1) mergeable records.

    ``lo``/``hi``/``buckets_per_decade`` fix the boundaries at
    construction; values below ``lo`` land in an underflow bucket and
    values at or above ``hi`` in an overflow bucket, so :meth:`record`
    never allocates or resizes. Two histograms with identical layouts
    :meth:`merge` by adding counts.
    """

    __slots__ = (
        "lo",
        "hi",
        "buckets_per_decade",
        "_counts",
        "_log_lo",
        "_top",
        "count",
        "total",
        "min",
        "max",
    )

    def __init__(
        self,
        lo: float = DEFAULT_LO,
        hi: float = DEFAULT_HI,
        buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE,
    ) -> None:
        if not (0 < lo < hi):
            raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade!r}"
            )
        self.lo = float(lo)
        self.hi = float(hi)
        self.buckets_per_decade = int(buckets_per_decade)
        self._log_lo = math.log10(self.lo)
        decades = math.log10(self.hi) - self._log_lo
        # +2 for the underflow (index 0) and overflow (last) buckets.
        n = int(math.ceil(decades * self.buckets_per_decade)) + 2
        self._counts = [0] * n
        #: The last interior bucket.
        self._top = n - 2
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- write -------------------------------------------------------------

    def record(self, value: float) -> None:
        """Record one observation (O(1), allocation-free)."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < self.lo:
            index = 0
        elif value >= self.hi:
            index = self._top + 1
        else:
            index = 1 + int((_log10(value) - self._log_lo) * self.buckets_per_decade)
            # Float rounding at an exact boundary may land one past the
            # last interior bucket; clamp rather than spill into overflow.
            if index > self._top:
                index = self._top
        self._counts[index] += 1

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram in; layouts must match exactly."""
        if (
            other.lo != self.lo
            or other.hi != self.hi
            or other.buckets_per_decade != self.buckets_per_decade
        ):
            raise ValueError(
                "cannot merge histograms with different bucket layouts: "
                f"({self.lo}, {self.hi}, {self.buckets_per_decade}) vs "
                f"({other.lo}, {other.hi}, {other.buckets_per_decade})"
            )
        for i, c in enumerate(other._counts):
            self._counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    # -- read --------------------------------------------------------------

    def _bucket_edges(self, index: int) -> tuple[float, float]:
        """The value interval covered by interior bucket ``index``."""
        lo = 10.0 ** (self._log_lo + (index - 1) / self.buckets_per_decade)
        hi = 10.0 ** (self._log_lo + index / self.buckets_per_decade)
        return lo, min(hi, self.hi)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1), interpolated inside its bucket.

        Exact observed extremes bound the answer: the result is clamped
        into ``[min, max]``, so a histogram fed a single value returns
        that value for every quantile.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                if index == 0:
                    value = self.lo
                elif index == len(self._counts) - 1:
                    value = self.hi
                else:
                    lo, hi = self._bucket_edges(index)
                    fraction = (rank - seen) / bucket_count
                    value = lo + fraction * (hi - lo)
                return min(max(value, self.min), self.max)
            seen += bucket_count
        return self.max

    @property
    def mean(self) -> float:
        """Arithmetic mean of all recorded values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, float]:
        """Wire-safe summary: count, sum, mean, min/max, p50/p90/p99."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def to_json(self) -> dict[str, Any]:
        """Full mergeable state (layout + counts), for export/transport."""
        return {
            "lo": self.lo,
            "hi": self.hi,
            "buckets_per_decade": self.buckets_per_decade,
            "counts": list(self._counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_json(cls, record: dict[str, Any]) -> "StreamingHistogram":
        """Rebuild a histogram from :meth:`to_json` output."""
        hist = cls(
            lo=float(record["lo"]),
            hi=float(record["hi"]),
            buckets_per_decade=int(record["buckets_per_decade"]),
        )
        counts: Sequence[int] = record["counts"]
        if len(counts) != len(hist._counts):
            raise ValueError(
                f"count vector length {len(counts)} does not match layout "
                f"({len(hist._counts)} buckets)"
            )
        hist._counts = [int(c) for c in counts]
        hist.count = int(record["count"])
        hist.total = float(record["sum"])
        if hist.count:
            hist.min = float(record["min"])
            hist.max = float(record["max"])
        return hist

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.count == 0:
            return "StreamingHistogram(empty)"
        return (
            f"StreamingHistogram(count={self.count}, "
            f"p50={self.quantile(0.5):.4g}, p99={self.quantile(0.99):.4g})"
        )


class WindowGauge:
    """A gauge that keeps its ``min``/``max`` envelope between reads.

    :meth:`record` is called on every change *and* by any periodic
    sampler; :meth:`read` returns ``last``/``min``/``max``/``samples``
    for the window since the previous read and (by default) starts a
    new window seeded with the last value — so consecutive stats
    snapshots partition time without gaps or double counting.
    """

    __slots__ = ("_lock", "_last", "_min", "_max", "_samples")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._last: float | None = None
        self._min = math.inf
        self._max = -math.inf
        self._samples = 0

    def record(self, value: float) -> None:
        """Record the current value of the tracked quantity."""
        value = float(value)
        with self._lock:
            self._last = value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._samples += 1

    @property
    def last(self) -> float | None:
        """Most recent recorded value (``None`` before any record)."""
        with self._lock:
            return self._last

    def read(self, reset: bool = True) -> dict[str, Any]:
        """The window summary; with ``reset`` a new window begins.

        The new window is seeded with the last value (sample count 0),
        so ``min``/``max`` stay defined even if nothing changes before
        the next read.
        """
        with self._lock:
            if self._last is None:
                return {"last": None, "min": None, "max": None, "samples": 0}
            out = {
                "last": self._last,
                "min": self._min if self._samples else self._last,
                "max": self._max if self._samples else self._last,
                "samples": self._samples,
            }
            if reset:
                self._min = self._last
                self._max = self._last
                self._samples = 0
            return out
