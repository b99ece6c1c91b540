"""Per-phase wall-clock attribution for profiling runs.

``repro sweep --profile`` breaks a run's wall time down into the
kernel's four cost centres so future hot spots stay attributable:

* ``estimation`` — refreshing dirty estimation vectors (the election
  strategy's ``refresh``);
* ``scoring`` — the placement election itself (the strategy's ``elect``,
  or its ranking plus the candidate filter, and the outcome);
* ``dispatch`` — everything else inside the engine loop (heap management,
  queueing, task lifecycle callbacks);
* ``energy`` — the energy accountant's segment bookkeeping.

:class:`PhaseTimer` attributes time *exclusively*: a stack of open phases
is maintained, and the interval between two transitions is booked to the
phase on top of the stack when the interval elapsed.  Instrumented code
guards every ``push``/``pop`` pair behind ``if timer is not None``, so
unprofiled runs (``timer=None`` everywhere) pay nothing.

The module-level *active timer* lets layers that never meet (the sweep
executor and the middleware driver) share one timer without threading it
through every constructor: the executor activates a fresh timer around a
profiled scenario, the driver picks it up at construction time.
"""

from __future__ import annotations

from time import perf_counter

#: Canonical phase names, in reporting order.
PHASES = ("estimation", "scoring", "dispatch", "energy")


class PhaseTimer:
    """Exclusive-attribution stack timer over named phases."""

    __slots__ = ("_totals", "_stack", "_last")

    def __init__(self) -> None:
        self._totals: dict[str, float] = {}
        self._stack: list[str] = []
        self._last = 0.0

    def push(self, phase: str) -> None:
        """Open ``phase``; time since the last transition books to its parent."""
        now = perf_counter()
        stack = self._stack
        if stack:
            top = stack[-1]
            self._totals[top] = self._totals.get(top, 0.0) + (now - self._last)
        stack.append(phase)
        self._last = now

    def pop(self) -> None:
        """Close the innermost phase, booking its open interval."""
        now = perf_counter()
        top = self._stack.pop()
        self._totals[top] = self._totals.get(top, 0.0) + (now - self._last)
        self._last = now

    def totals(self) -> dict[str, float]:
        """Accumulated seconds per phase (phases never entered are absent)."""
        return dict(self._totals)


_ACTIVE: PhaseTimer | None = None


def activate(timer: PhaseTimer) -> PhaseTimer:
    """Install ``timer`` as the process-wide active timer and return it."""
    global _ACTIVE
    _ACTIVE = timer
    return timer


def deactivate() -> None:
    """Clear the active timer."""
    global _ACTIVE
    _ACTIVE = None


def active_timer() -> PhaseTimer | None:
    """The currently active timer, or ``None`` outside profiled runs."""
    return _ACTIVE
