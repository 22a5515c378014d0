"""Live progress and ETA for a run's per-item match loop.

The morphing pipeline already *predicts* how long each measured
alternative pattern will take — Algorithm 1's per-item costs are what
selection ranks — and PR 3's telemetry *measures* each ``match.item``
span. :class:`ProgressReporter` closes the loop between the two: the ETA
starts from the predicted per-item cost distribution (so the first line
can already say "item 1 of 6 is 80% of the predicted work") and is
corrected online as items finish, by calibrating seconds-per-cost-unit
from the measured durations so far.

Design constraints mirror the tracer's:

* **Zero cost when off.** The session guards every notification with a
  plain ``progress is None`` test; nothing here imports or runs
  otherwise, and the engines' kernel hot path is untouched (progress is
  session-level, one notification per measured item).
* **Deterministic math.** ETA arithmetic uses only the predicted costs
  and the measured seconds fed in — the wall clock enters solely through
  an injectable ``clock`` (tests drive a fake one).
* **Stream-agnostic.** Rendering writes ``\\r``-terminated lines to any
  text stream (default ``sys.stderr``, the CLI's ``--progress``);
  pass ``stream=None`` explicitly for a silent reporter whose snapshots
  are still queryable.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

__all__ = ["ProgressReporter", "ProgressSnapshot"]

#: Items predicted to cost nothing still count this much, so fractions
#: and ETAs stay finite.
_MIN_COST = 1e-12


@dataclass(frozen=True)
class ProgressSnapshot:
    """One observable moment of a reporter (all derived values frozen)."""

    done_items: int
    total_items: int
    #: Predicted cost units completed / total (Algorithm 1's units).
    done_cost: float
    total_cost: float
    #: Wall seconds since :meth:`ProgressReporter.start`.
    elapsed_seconds: float
    #: Calibrated remaining-time estimate; ``None`` until a rate is
    #: known (no item finished yet and no prior was given).
    eta_seconds: float | None
    current_item: str | None

    @property
    def fraction_done(self) -> float:
        """Completed fraction of the *predicted* work (0..1)."""
        if self.total_cost <= 0:
            return 1.0 if self.done_items >= self.total_items else 0.0
        return min(1.0, self.done_cost / self.total_cost)


class ProgressReporter:
    """Cost-model-seeded, measurement-corrected progress/ETA reporter.

    Lifecycle: :meth:`start` with the ``(label, predicted_cost)`` items
    the match loop will measure, :meth:`item_started` /
    :meth:`item_finished` around each, :meth:`finish` once. A reporter
    is reusable: ``start`` resets all state, so one instance can serve
    several runs in sequence (e.g. the baseline and morphed sides of a
    comparison).
    """

    def __init__(
        self,
        stream: TextIO | None | str = "stderr",
        min_interval: float = 0.1,
        seconds_per_cost: float | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        """``stream`` is where lines render (the default resolves to
        ``sys.stderr`` lazily; pass ``None`` for a silent reporter).
        ``min_interval`` throttles redraws. ``seconds_per_cost`` is an
        optional prior calibration — with it the very first line already
        shows an absolute ETA; without, ETA appears once the first item
        finishes. ``clock`` injects time for tests."""
        self._stream_spec = stream
        self.min_interval = min_interval
        self.prior_seconds_per_cost = seconds_per_cost
        self.clock = clock
        self._reset()

    def _reset(self) -> None:
        self._costs: dict[str, float] = {}
        self._order: list[str] = []
        self._done: set[str] = set()
        self._done_cost = 0.0
        self._done_seconds = 0.0
        self._current: str | None = None
        self._current_started_at = 0.0
        self._current_fraction = 0.0
        self._started_at = 0.0
        self._last_emit = float("-inf")
        self._active = False
        self._rendered = False

    @property
    def _stream(self) -> TextIO | None:
        if self._stream_spec == "stderr":
            return sys.stderr
        return self._stream_spec  # a real stream, or None (silent)

    # -- lifecycle ---------------------------------------------------------

    def start(self, items: Sequence[tuple[str, float]]) -> None:
        """Begin a run over ``(label, predicted_cost)`` items."""
        self._reset()
        for label, cost in items:
            self._costs[label] = max(float(cost), _MIN_COST)
            self._order.append(label)
        self._started_at = self.clock()
        self._active = True
        self._emit()

    def item_started(self, label: str) -> None:
        """The match loop is about to measure ``label``."""
        self._current = label
        self._current_started_at = self.clock()
        self._current_fraction = 0.0
        self._emit()

    def item_progress(self, fraction: float) -> None:
        """Partial completion (0..1) of the *current* item.

        The batched frontier kernel reports the completed root fraction
        after every root chunk, so the ETA recalibrates per batch instead
        of only at item boundaries — on a one-item run the estimate moves
        long before ``item_finished``. Monotonic (a late or duplicate
        callback can only advance the fraction) and ignored when no item
        is in flight.
        """
        if self._current is None or self._current not in self._costs:
            return
        fraction = min(1.0, max(0.0, float(fraction)))
        self._current_fraction = max(self._current_fraction, fraction)
        self._emit()

    def item_finished(self, label: str, seconds: float) -> None:
        """``label`` finished after ``seconds``; recalibrates the ETA."""
        if label in self._costs and label not in self._done:
            self._done.add(label)
            self._done_cost += self._costs[label]
            self._done_seconds += max(0.0, seconds)
        if self._current == label:
            self._current = None
            self._current_fraction = 0.0
        self._emit()

    def finish(self) -> None:
        """End the run; renders the final (newline-terminated) line."""
        if not self._active:
            return
        self._emit(final=True)
        self._active = False

    def close(self) -> None:
        """Terminate the current line without a final summary.

        The ``finally`` counterpart to :meth:`finish`: when a run
        raises mid-render, the last ``\\r``-overwritten line would
        otherwise be left dangling and the traceback would print on top
        of it. ``close`` writes a bare newline iff a line was rendered
        and :meth:`finish` has not already terminated it — so the happy
        path (``finish`` then ``close``) emits nothing extra.
        """
        if not self._active:
            return
        self._active = False
        if not self._rendered:
            return
        stream = self._stream
        if stream is not None:
            stream.write("\n")
            stream.flush()
        self._rendered = False

    # -- the estimate ------------------------------------------------------

    def _partial_cost(self) -> float:
        """Cost units completed *inside* the current in-flight item."""
        if self._current is None or self._current_fraction <= 0.0:
            return 0.0
        if self._current in self._done or self._current not in self._costs:
            return 0.0
        return self._current_fraction * self._costs[self._current]

    @property
    def seconds_per_cost(self) -> float | None:
        """Current calibration: measured seconds per predicted cost unit.

        Online-corrected — the cumulative measured/predicted ratio over
        finished items, plus the in-flight item's reported fraction and
        elapsed time when the batched kernel feeds :meth:`item_progress`
        — falling back to the constructor prior before anything has
        finished.
        """
        partial = self._partial_cost()
        if self._done_cost + partial > 0:
            seconds = self._done_seconds
            if partial > 0:
                seconds += max(0.0, self.clock() - self._current_started_at)
            return seconds / (self._done_cost + partial)
        return self.prior_seconds_per_cost

    def eta_seconds(self) -> float | None:
        """Predicted seconds until the match loop completes."""
        rate = self.seconds_per_cost
        if rate is None:
            return None
        remaining = sum(
            self._costs[label]
            for label in self._order
            if label not in self._done
        ) - self._partial_cost()
        return max(0.0, remaining) * rate

    def snapshot(self) -> ProgressSnapshot:
        """Freeze the current state (tests and embedders read this)."""
        return ProgressSnapshot(
            done_items=len(self._done),
            total_items=len(self._order),
            done_cost=self._done_cost + self._partial_cost(),
            total_cost=sum(self._costs.values()),
            elapsed_seconds=max(0.0, self.clock() - self._started_at),
            eta_seconds=self.eta_seconds(),
            current_item=self._current,
        )

    # -- rendering ---------------------------------------------------------

    def _emit(self, final: bool = False) -> None:
        stream = self._stream
        if stream is None:
            return
        now = self.clock()
        if not final and now - self._last_emit < self.min_interval:
            return
        self._last_emit = now
        snap = self.snapshot()
        parts = [
            f"# progress {snap.done_items}/{snap.total_items} items",
            f"{100.0 * snap.fraction_done:3.0f}% of predicted cost",
        ]
        if snap.eta_seconds is not None and not final:
            parts.append(f"eta ~{snap.eta_seconds:.1f}s")
        if final:
            parts.append(f"done in {snap.elapsed_seconds:.2f}s")
        elif snap.current_item is not None:
            parts.append(f"({snap.current_item})")
        # Left-pad with \r and right-pad with spaces so a shorter line
        # fully overwrites a longer previous one without ANSI escapes.
        stream.write(("\r" + "  ".join(parts)).ljust(79))
        if final:
            stream.write("\n")
            self._rendered = False
        else:
            self._rendered = True
        stream.flush()
