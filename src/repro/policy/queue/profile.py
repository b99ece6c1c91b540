"""Piecewise-constant free-core profile for backfill planning.

A :class:`CoreProfile` tracks how many cores are free at every future
instant, as a step function: an initial capacity, lowered over finite
windows by :meth:`reserve` (running jobs until their estimated ends,
reservations for queued jobs).  The final segment extends to infinity,
so any job no wider than the unreserved tail always has a feasible
start.

This is the one data structure all three planning policies share:
EASY uses it to compute the queue head's shadow time and to test
whether a backfill candidate collides with the head's reservation;
conservative backfill folds every queued job's reservation back into
it; FCFS never needs it (head-blocking needs only the instantaneous
free count).

>>> profile = CoreProfile(4)
>>> profile.reserve(0.0, cores=3, duration=10.0)   # a running job: 1 core free
>>> profile.earliest_start(cores=2, duration=5.0, not_before=0.0)
10.0
>>> profile.earliest_start(cores=1, duration=100.0, not_before=0.0)
0.0
>>> profile.earliest_start(cores=9, duration=1.0, not_before=0.0) is None
True
"""

from __future__ import annotations

import bisect

__all__ = ["CoreProfile"]


class CoreProfile:
    """Free cores over time, as a right-open step function.

    Segment ``i`` spans ``[times[i], times[i+1])`` with ``free[i]``
    cores available; the last segment extends to infinity.  Times and
    core counts are exact (floats compared directly) — the simulator
    feeds event times straight through, so breakpoints align without
    tolerance juggling and sweeps stay byte-identical.
    """

    __slots__ = ("_times", "_free")

    def __init__(self, capacity: int, *, origin: float = 0.0) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self._times: list[float] = [float(origin)]
        self._free: list[int] = [int(capacity)]

    def _segment_index(self, time: float) -> int:
        return bisect.bisect_right(self._times, time) - 1

    def _ensure_breakpoint(self, time: float) -> int:
        """Split the segment containing ``time`` so a breakpoint exists there."""
        index = self._segment_index(time)
        if index < 0:
            raise ValueError(f"time {time} precedes the profile origin")
        if self._times[index] == time:
            return index
        self._times.insert(index + 1, time)
        self._free.insert(index + 1, self._free[index])
        return index + 1

    def reserve(self, start: float, *, cores: int, duration: float) -> None:
        """Subtract ``cores`` over ``[start, start + duration)``.

        Zero-duration (or zero-core) reservations are no-ops — a job
        with a zero wall estimate occupies no interval.  Reservations
        may drive a segment negative; callers that must not overcommit
        check :meth:`earliest_start` first, and the invariant harness
        checks the simulator never does.
        """
        if cores <= 0 or duration <= 0:
            return
        first = self._ensure_breakpoint(start)
        last = self._ensure_breakpoint(start + duration)
        for index in range(first, last):
            self._free[index] -= cores

    def _fits(self, start: float, cores: int, duration: float) -> bool:
        index = self._segment_index(start)
        if self._free[index] < cores:
            return False
        end = start + duration
        while index + 1 < len(self._times) and self._times[index + 1] < end:
            index += 1
            if self._free[index] < cores:
                return False
        return True

    def earliest_start(
        self, *, cores: int, duration: float, not_before: float
    ) -> float | None:
        """Earliest ``start >= not_before`` with ``cores`` free for ``duration``.

        Returns ``None`` when no start exists — i.e. the job is wider
        than the profile's infinite tail (under current capacity it can
        never run).  Only ``not_before`` itself and later breakpoints
        can be answers: free cores only increase at breakpoints.

        >>> profile = CoreProfile(2)
        >>> profile.reserve(0.0, cores=2, duration=4.0)
        >>> profile.earliest_start(cores=1, duration=3.0, not_before=1.0)
        4.0
        """
        if cores <= 0:
            return max(float(not_before), self._times[0])
        start = max(float(not_before), self._times[0])
        if self._fits(start, cores, duration):
            return start
        first = self._segment_index(start) + 1
        for index in range(first, len(self._times)):
            candidate = self._times[index]
            if self._fits(candidate, cores, duration):
                return candidate
        return None
