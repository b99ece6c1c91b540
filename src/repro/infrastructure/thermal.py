"""Thermal environment of the platform.

The adaptive-provisioning experiment (Section IV-C) reacts to two thermal
states: *in-range* temperature (< 25 °C) and *out-of-range* temperature
(> 25 °C).  Event 3 of Figure 9 is "an instant rise of temperature"
detected by the Master Agent, and Event 4 is the return to an acceptable
temperature.

This module models the machine-room temperature as a piecewise-constant
signal that can be perturbed by :class:`ThermalEvent` injections (the
"unexpected" events of the paper) and optionally nudged by the platform's
own power draw, which is enough to reproduce the scheduler-visible
behaviour: a temperature reading compared against a threshold.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.util.validation import ensure_non_negative

#: Threshold above which the paper's administrator rules consider the
#: temperature out of range (degrees Celsius).
DEFAULT_TEMPERATURE_THRESHOLD = 25.0


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
    """Piecewise-constant machine-room temperature with optional load coupling.

    Parameters
    ----------
    base_temperature:
        Temperature before any event (°C).
    threshold:
        Out-of-range threshold used by administrator rules (°C).
    load_coefficient:
        Additional degrees per kilowatt of platform draw.  The default of
        0.0 keeps the temperature purely event-driven, matching the paper's
        experiment where the heat peak is injected, not emergent.
    """

    def __init__(
        self,
        *,
        base_temperature: float = 21.0,
        threshold: float = DEFAULT_TEMPERATURE_THRESHOLD,
        load_coefficient: float = 0.0,
    ) -> None:
        self.base_temperature = float(base_temperature)
        self.threshold = float(threshold)
        ensure_non_negative(load_coefficient, "load_coefficient")
        self.load_coefficient = float(load_coefficient)
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

    def ambient_temperature(self, time: float) -> float:
        """Event-driven component of the temperature at ``time`` (°C)."""
        index = bisect.bisect_right(self._event_times, time) - 1
        if index < 0:
            return self.base_temperature
        return self._events[index].temperature

    def temperature(self, time: float, *, platform_power_watts: float = 0.0) -> float:
        """Temperature reading at ``time`` (°C).

        ``platform_power_watts`` adds ``load_coefficient`` degrees per
        kilowatt drawn, when load coupling is enabled.
        """
        ensure_non_negative(platform_power_watts, "platform_power_watts")
        return (
            self.ambient_temperature(time)
            + self.load_coefficient * platform_power_watts / 1000.0
        )
