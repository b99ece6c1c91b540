"""Thermal environment of the platform.

The adaptive-provisioning experiment (Section IV-C) reacts to two thermal
states: *in-range* temperature (< 25 °C) and *out-of-range* temperature
(> 25 °C).  Event 3 of Figure 9 is "an instant rise of temperature"
detected by the Master Agent, and Event 4 is the return to an acceptable
temperature.

This module models the machine-room temperature as a piecewise-constant
signal stepped by :class:`ThermalEvent` injections (the "unexpected"
events of the paper), which is enough to reproduce the scheduler-visible
behaviour: a temperature reading compared against a threshold.  The heat
peak is injected, not emergent, as in the paper's experiment.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.util.validation import ensure_non_negative

#: Threshold above which the paper's administrator rules consider the
#: temperature out of range (degrees Celsius): the overheating rule and the
#: provisioning planner's temperature override both read it.
TEMPERATURE_THRESHOLD = 25.0


@dataclass(frozen=True, order=True)
class ThermalEvent:
    """A step change of the ambient temperature at a given time.

    ``time`` is the simulated time (s) at which the machine-room
    temperature becomes ``temperature`` (°C) and stays there until the next
    event.
    """

    time: float
    temperature: float

    def __post_init__(self) -> None:
        ensure_non_negative(self.time, "time")


class ThermalEnvironment:
    """Piecewise-constant machine-room temperature.

    Parameters
    ----------
    base_temperature:
        Temperature before any event (°C).
    """

    def __init__(self, *, base_temperature: float = 21.0) -> None:
        self.base_temperature = float(base_temperature)
        self._events: list[ThermalEvent] = []
        self._event_times: list[float] = []

    def schedule_event(self, event: ThermalEvent) -> None:
        """Register a temperature step.  Events may be added in any order."""
        index = bisect.bisect(self._event_times, event.time)
        self._event_times.insert(index, event.time)
        self._events.insert(index, event)

    @property
    def events(self) -> tuple[ThermalEvent, ...]:
        """Scheduled events sorted by time."""
        return tuple(self._events)

    def temperature(self, time: float) -> float:
        """Temperature reading at ``time`` (°C): the last step at or before it."""
        index = bisect.bisect_right(self._event_times, time) - 1
        if index < 0:
            return self.base_temperature
        return self._events[index].temperature
