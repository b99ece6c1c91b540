"""Minimal discrete-event simulation engine.

The engine keeps a priority queue of timestamped callbacks.  Everything in
the reproduction — request arrivals, task completions, node boots, the
Master Agent's periodic 10-minute status checks — is expressed as an event
scheduled on this engine, which keeps the middleware and scheduler code
free of any time-keeping logic.

Events at the same timestamp fire in FIFO order of scheduling, with an
optional integer ``priority`` to break ties deterministically (lower fires
first).  Determinism matters: the experiments must be exactly repeatable
for a given seed.

The heap holds ``(time, priority, sequence, event)`` tuples.  ``sequence``
is unique, so tuple comparison never reaches the event and the heap
orders itself in C, without a Python-level ``__lt__``.  The event is a
``__slots__`` :class:`ScheduledEvent`: the caller's cancellation handle
and the carrier of the callback.  Callbacks take their arguments from an
``args`` tuple bound at scheduling time, so callers on hot paths (one
arrival + one completion per task) can schedule bound methods instead of
allocating a closure per task.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Sequence

from repro.util.validation import ensure_non_negative

EventCallback = Callable[..., None]


class ScheduledEvent:
    """One pending event, as returned to the caller: the cancellation handle.

    A plain event fires ``callback(*args)``.  A batched event
    (:meth:`SimulationEngine.schedule_many`) carries ``items`` instead and
    fires ``callback(item)`` once per item, in submission order; each item
    counts as one logical event towards ``processed_events``.  A batch
    fires atomically: cancelling it after the first item has fired has no
    effect.
    """

    __slots__ = ("time", "callback", "args", "items", "label", "cancelled")

    def __init__(
        self,
        time: float,
        callback: EventCallback,
        args: Sequence,
        items: tuple | None,
        label: str,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.items = items
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = " cancelled" if self.cancelled else ""
        batch = "" if self.items is None else f", n={len(self.items)}"
        return f"ScheduledEvent(t={self.time}{batch}, {self.label!r}{state})"


class SimulationEngine:
    """Event-driven simulation clock.

    Example
    -------
    Events fire in time order; equal times fire by ``priority`` (lower
    first), then in scheduling order, and a cancelled event never fires:

    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule(5.0, fired.append, args=("late",))
    >>> _ = engine.schedule(1.0, fired.append, args=("fifo",))
    >>> _ = engine.schedule(1.0, fired.append, args=("urgent",), priority=-1)
    >>> dropped = engine.schedule(2.0, fired.append, args=("dropped",))
    >>> dropped.cancel()
    >>> engine.run()
    >>> fired
    ['urgent', 'fifo', 'late']
    >>> engine.now, engine.processed_events
    (5.0, 3)
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: ``(time, priority, sequence, event)`` tuples, a binary heap.
        self._heap: list[tuple[float, int, int, ScheduledEvent]] = []
        self._sequence = itertools.count()
        self._processed = 0

    # -- clock -----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (s)."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events fired so far."""
        return self._processed

    # -- scheduling ---------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: EventCallback,
        *,
        args: Sequence = (),
        priority: int = 0,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to fire at absolute simulated ``time``.

        ``time`` must not be in the past.  Returns the event itself, whose
        :meth:`~ScheduledEvent.cancel` method removes it.
        """
        self._check_time(time)
        entry = ScheduledEvent(time, callback, args, None, label)
        heapq.heappush(self._heap, (time, priority, next(self._sequence), entry))
        return entry

    def schedule_many(
        self,
        time: float,
        callback: EventCallback,
        items: Sequence,
        *,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(item)`` for every item, as one heap entry.

        All items fire at the same ``time`` with priority 0, in the order
        given — exactly as if each had been scheduled
        individually, back to back — but a burst of any size costs a single
        heap push/pop.  Each item still counts as one logical event for
        :attr:`processed_events`, so metrics are identical to the unbatched
        formulation.
        """
        self._check_time(time)
        if not items:
            raise ValueError("schedule_many requires at least one item")
        items = tuple(items)
        entry = ScheduledEvent(time, callback, (), items, label)
        heapq.heappush(self._heap, (time, 0, next(self._sequence), entry))
        return entry

    def _check_time(self, time: float) -> None:
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise ValueError(
                f"cannot schedule an event at {time} before current time {self._now}"
            )

    def schedule_in(
        self,
        delay: float,
        callback: EventCallback,
        *,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback()`` to fire ``delay`` seconds from now."""
        ensure_non_negative(delay, "delay")
        return self.schedule(self._now + delay, callback, label=label)

    # -- execution -------------------------------------------------------------------
    def step(self) -> int:
        """Fire the next pending heap entry.

        Returns the number of logical events fired (0 when none remain,
        ``len(items)`` for a batched entry) — truthy exactly when an event
        fired, so existing ``while engine.step():`` loops keep working.
        """
        heap = self._heap
        while heap:
            time, _, _, entry = heapq.heappop(heap)
            if entry.cancelled:
                continue
            self._now = time
            items = entry.items
            if items is None:
                entry.callback(*entry.args)
                self._processed += 1
                return 1
            count = len(items)
            callback = entry.callback
            for item in items:
                callback(item)
            self._processed += count
            return count
        return 0

    def run(self, *, until: float | None = None) -> None:
        """Run until the event queue is empty.

        ``until`` stops the clock once the next event would fire strictly
        after that time (the clock is advanced to ``until``).
        """
        heap = self._heap
        step = self.step
        while heap:
            if until is not None:
                # Drop tombstones first, so the bound is read off a live event.
                time, _, _, entry = heap[0]
                if entry.cancelled:
                    heapq.heappop(heap)
                    continue
                if time > until:
                    self._now = max(self._now, until)
                    return
            step()
        if until is not None:
            self._now = max(self._now, until)
