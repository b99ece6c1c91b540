"""Typed timeline events and the :class:`EventTimeline` container.

The adaptive provisioning experiment (Sections III-C and IV-C) injects
energy events "at the scheduler level": scheduled electricity-cost
changes, known ahead of time through the energy provider's schedule, and
unexpected temperature excursions, which the monitoring system detects
when they happen.  This module turns that quartet into a declarative
event vocabulary, every event an :class:`EnergyEvent`:

* :class:`TariffChange` — a scheduled electricity-cost step;
* :class:`ThermalExcursion` — an (by default unexpected) machine-room
  temperature step;
* :class:`NodeFailure` / :class:`NodeRecovery` — a node crash and its
  repair, driven through the ``FAILED`` state of
  :class:`~repro.infrastructure.node.Node`;
* :class:`WorkloadBurst` — an arrival-rate multiplier over a time window,
  consumed by closed-loop clients.

Events are plain data.  The scheduled/unexpected split is what the
:class:`~repro.core.provisioning.ProvisioningPlanner` look-ahead and the
administrator thresholds (:func:`~repro.core.provisioning.provisioning_target`)
react to.

An :class:`EventTimeline` is an ordered, validated tuple of events with a
deterministic content hash; it is constructible in code, from a TOML/JSON
file (:mod:`repro.scenario.io`) or from seeded generators
(:mod:`repro.scenario.generators`).
"""

from __future__ import annotations

import hashlib
import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Mapping

from repro.util.validation import (
    ensure_finite,
    ensure_in_range,
    ensure_non_negative,
    ensure_positive,
)


class TimelineError(ValueError):
    """An event or timeline failed validation."""


@dataclass(frozen=True)
class EnergyEvent(ABC):
    """Base class of the timeline events.

    ``time`` is when the event takes effect; ``scheduled`` distinguishes
    events the scheduler can learn about in advance (electricity tariffs)
    from unexpected ones (heat peaks) it only sees once they occur.
    """

    time: float
    scheduled: bool = True

    def __post_init__(self) -> None:
        ensure_non_negative(self.time, "time")
        if not isinstance(self.scheduled, bool):
            raise TimelineError(f"scheduled must be true or false, got {self.scheduled!r}")

    @property
    @abstractmethod
    def kind(self) -> str:
        """Short machine-readable event kind, its serialised discriminator."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable description used in traces and reports."""

    def to_mapping(self) -> dict[str, object]:
        """JSON/TOML-compatible representation: kind, time, own fields, scheduled.

        >>> NodeFailure(time=5.0, node="orion-0").to_mapping()
        {'kind': 'node_failure', 'time': 5.0, 'node': 'orion-0', 'scheduled': False}
        """
        own = {
            field.name: getattr(self, field.name)
            for field in fields(self)
            if field.name not in ("time", "scheduled")
        }
        return {"kind": self.kind, "time": self.time, **own, "scheduled": self.scheduled}


@dataclass(frozen=True)
class TariffChange(EnergyEvent):
    """The electricity-cost ratio becomes ``cost`` at ``time`` (scheduled).

    >>> TariffChange(time=3600.0, cost=0.8).kind
    'tariff_change'
    """

    cost: float = 1.0
    kind = "tariff_change"

    def __post_init__(self) -> None:
        super().__post_init__()
        ensure_in_range(self.cost, "cost", 0.0, 1.0)

    def describe(self) -> str:
        flavour = "scheduled" if self.scheduled else "unexpected"
        return f"[{flavour}] electricity cost -> {self.cost:.2f} at t={self.time:.0f}s"


@dataclass(frozen=True)
class ThermalExcursion(EnergyEvent):
    """The machine-room temperature becomes ``temperature`` °C at ``time``.

    Unexpected by default, matching Events 3–4 of Figure 9; a recovery is
    simply an excursion back below the threshold.

    >>> ThermalExcursion(time=9600.0, temperature=30.0).scheduled
    False
    """

    temperature: float = 25.0
    scheduled: bool = False
    kind = "thermal_excursion"

    def __post_init__(self) -> None:
        super().__post_init__()
        # NaN would make every threshold comparison false, inf every one true.
        ensure_finite(self.temperature, "temperature")

    def describe(self) -> str:
        flavour = "scheduled" if self.scheduled else "unexpected"
        return (
            f"[{flavour}] temperature -> {self.temperature:.1f} degC at t={self.time:.0f}s"
        )


def _check_node_name(node: object, kind: str) -> None:
    if not isinstance(node, str):
        raise TimelineError(f"{kind} node must be a string, got {node!r}")
    if not node:
        raise TimelineError(f"{kind} requires a non-empty node name")


@dataclass(frozen=True)
class NodeFailure(EnergyEvent):
    """Node ``node`` crashes at ``time`` (unexpected).

    The driver cancels the node's in-flight completions and requeues (or
    fails) the affected tasks; the node's open power segment is closed at
    the crash instant and the node draws nothing until repaired.
    """

    node: str = ""
    scheduled: bool = False
    kind = "node_failure"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_node_name(self.node, self.kind)

    def describe(self) -> str:
        flavour = "scheduled" if self.scheduled else "unexpected"
        return f"[{flavour}] node {self.node} fails at t={self.time:.0f}s"


@dataclass(frozen=True)
class NodeRecovery(EnergyEvent):
    """Node ``node`` is repaired at ``time`` and returns to service."""

    node: str = ""
    scheduled: bool = False
    kind = "node_recovery"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_node_name(self.node, self.kind)

    def describe(self) -> str:
        flavour = "scheduled" if self.scheduled else "unexpected"
        return f"[{flavour}] node {self.node} recovers at t={self.time:.0f}s"


@dataclass(frozen=True)
class WorkloadBurst(EnergyEvent):
    """The arrival rate is multiplied by ``factor`` over ``[time, time + duration)``.

    Closed-loop clients read the product of all active bursts through
    :meth:`EventTimeline.arrival_multiplier`; ``factor`` may be below 1.0
    to model a lull.

    >>> WorkloadBurst(time=60.0, duration=120.0, factor=2.0).window
    (60.0, 180.0)
    """

    duration: float = 0.0
    factor: float = 1.0
    scheduled: bool = True
    kind = "workload_burst"

    def __post_init__(self) -> None:
        super().__post_init__()
        ensure_positive(self.duration, "duration")
        ensure_positive(self.factor, "factor")
        if not math.isfinite(self.factor):
            raise TimelineError(f"burst factor must be finite, got {self.factor!r}")

    @property
    def window(self) -> tuple[float, float]:
        """The half-open ``[start, end)`` interval the burst covers."""
        return (self.time, self.time + self.duration)

    def active_at(self, now: float) -> bool:
        """Whether the burst applies at ``now``."""
        return self.time <= now < self.time + self.duration

    def describe(self) -> str:
        return (
            f"[scheduled] arrival rate x{self.factor:g} over "
            f"t=[{self.time:.0f}s, {self.time + self.duration:.0f}s)"
        )


#: Event constructors by serialised ``kind``, shared by the file loader.
EVENT_KINDS: Mapping[str, type] = {
    event.kind: event
    for event in (TariffChange, ThermalExcursion, NodeFailure, NodeRecovery, WorkloadBurst)
}


def event_from_mapping(mapping: Mapping[str, object]) -> EnergyEvent:
    """Build one typed event from its ``kind``-discriminated mapping.

    Every malformed entry raises :class:`TimelineError`, whatever the
    fault: not a mapping, an unknown or non-string ``kind``, an unknown
    field, or a field value its event rejects.

    >>> event_from_mapping({"kind": "tariff_change", "time": 60.0, "cost": 0.5}).cost
    0.5
    >>> try:
    ...     event_from_mapping({"kind": "tariff_change", "time": float("nan")})
    ... except TimelineError as error:
    ...     print(error)
    invalid tariff_change event {'time': nan}: time must be finite, got nan
    """
    if not isinstance(mapping, Mapping):
        raise TimelineError(f"an event must be a table/object, got {mapping!r}")
    data = dict(mapping)
    kind = data.pop("kind", None)
    if not isinstance(kind, str) or kind not in EVENT_KINDS:
        raise TimelineError(
            f"unknown event kind {kind!r}; expected one of {sorted(EVENT_KINDS)}"
        )
    try:
        return EVENT_KINDS[kind](**data)
    except (TypeError, ValueError) as error:
        raise TimelineError(f"invalid {kind} event {data!r}: {error}") from None


class EventTimeline:
    """An ordered, validated sequence of timeline events.

    Events are sorted by ``(time, insertion order)`` at construction —
    callers may supply them in any order.  Validation enforces the
    crash/repair protocol: a :class:`NodeRecovery` must repair a node that
    is currently failed, and a :class:`NodeFailure` must not crash a node
    that is already down.

    >>> timeline = EventTimeline([
    ...     NodeRecovery(time=120.0, node="orion-0"),
    ...     NodeFailure(time=60.0, node="orion-0"),
    ... ])
    >>> [event.kind for event in timeline]
    ['node_failure', 'node_recovery']
    """

    def __init__(self, events: Iterable[EnergyEvent] = ()) -> None:
        entries = tuple(events)
        for event in entries:
            if not isinstance(event, EnergyEvent):
                raise TimelineError(
                    f"timeline entries must be EnergyEvent instances, got "
                    f"{type(event).__name__}"
                )
        ordered = sorted(enumerate(entries), key=lambda pair: (pair[1].time, pair[0]))
        self._events: tuple[EnergyEvent, ...] = tuple(event for _, event in ordered)
        self._validate()

    def _validate(self) -> None:
        down: set[str] = set()
        for event in self._events:
            if isinstance(event, NodeFailure):
                if event.node in down:
                    raise TimelineError(
                        f"node {event.node!r} fails at t={event.time:g} while "
                        f"already failed; insert a node_recovery first"
                    )
                down.add(event.node)
            elif isinstance(event, NodeRecovery):
                if event.node not in down:
                    raise TimelineError(
                        f"node {event.node!r} recovers at t={event.time:g} "
                        f"without a preceding node_failure"
                    )
                down.discard(event.node)

    # -- container protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[EnergyEvent]:
        return iter(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventTimeline):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"EventTimeline({len(self._events)} events)"

    @property
    def events(self) -> tuple[EnergyEvent, ...]:
        """All events in chronological order."""
        return self._events

    # -- typed views ------------------------------------------------------------
    @property
    def tariff_changes(self) -> tuple[TariffChange, ...]:
        """Electricity-cost steps in chronological order."""
        return tuple(e for e in self._events if isinstance(e, TariffChange))

    @property
    def thermal_excursions(self) -> tuple[ThermalExcursion, ...]:
        """Temperature steps in chronological order."""
        return tuple(e for e in self._events if isinstance(e, ThermalExcursion))

    @property
    def node_events(self) -> tuple[EnergyEvent, ...]:
        """Failures and recoveries, interleaved chronologically."""
        return tuple(
            e for e in self._events if isinstance(e, (NodeFailure, NodeRecovery))
        )

    @property
    def bursts(self) -> tuple[WorkloadBurst, ...]:
        """Workload bursts in chronological order."""
        return tuple(e for e in self._events if isinstance(e, WorkloadBurst))

    def arrival_multiplier(self, now: float) -> float:
        """Product of the factors of every burst active at ``now``.

        >>> timeline = EventTimeline([WorkloadBurst(time=0.0, duration=10.0, factor=3.0)])
        >>> timeline.arrival_multiplier(5.0), timeline.arrival_multiplier(10.0)
        (3.0, 1.0)
        """
        ensure_non_negative(now, "now")
        multiplier = 1.0
        for burst in self.bursts:
            if burst.active_at(now):
                multiplier *= burst.factor
        return multiplier

    @property
    def end_time(self) -> float:
        """Time of the last event effect (burst windows count to their end)."""
        end = 0.0
        for event in self._events:
            if isinstance(event, WorkloadBurst):
                end = max(end, event.window[1])
            else:
                end = max(end, event.time)
        return end

    # -- serialisation ------------------------------------------------------------
    def to_mappings(self) -> list[dict[str, object]]:
        """JSON/TOML-compatible event list (each entry inverts :func:`event_from_mapping`)."""
        return [event.to_mapping() for event in self._events]

    def content_hash(self) -> str:
        """Deterministic SHA-256 of the timeline content.

        The hash is computed over the canonical (key-sorted,
        minimal-separator) JSON encoding of :meth:`to_mappings`, so it is
        independent of the file format the timeline came from: the same
        events loaded from TOML and JSON hash identically, which is what
        lets the sweep cache treat timelines as content-addressed.
        """
        encoded = json.dumps(
            self.to_mappings(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def extended(self, events: Iterable[EnergyEvent]) -> "EventTimeline":
        """A new timeline with ``events`` merged in (re-sorted, re-validated)."""
        return EventTimeline((*self._events, *events))
