"""Wiring timelines into a running simulation.

Two halves, matching the paper's scheduled/unexpected split:

* :func:`build_schedules` turns the tariff and thermal events of a
  timeline into the time-indexed
  :class:`~repro.infrastructure.electricity.ElectricityCostSchedule` and
  :class:`~repro.infrastructure.thermal.ThermalEnvironment` that the
  :class:`~repro.core.provisioning.ProvisioningPlanner` already consumes —
  scheduled events stay visible through the planner's look-ahead,
  unexpected ones only once they occur, exactly as before.
* :func:`install_timeline` schedules the *fault* events (node crashes and
  recoveries) as engine events calling
  :meth:`~repro.middleware.driver.MiddlewareSimulation.fail_node` /
  :meth:`~repro.middleware.driver.MiddlewareSimulation.recover_node`.
  Workload bursts need no engine event: closed-loop clients sample
  :meth:`~repro.scenario.events.EventTimeline.arrival_multiplier` at each
  tick.

:func:`apply_timeline` is the one-call form the lab assembly
(:mod:`repro.lab.session`) uses: build the schedules *and* install the
faults, in that order, for any experiment family.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Sequence

from repro.infrastructure.electricity import ElectricityCostSchedule, TariffPeriod
from repro.infrastructure.thermal import ThermalEnvironment, ThermalEvent
from repro.scenario.events import EventTimeline, NodeFailure, NodeRecovery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.middleware.driver import MiddlewareSimulation
    from repro.simulation.engine import ScheduledEvent


def build_schedules(
    timeline: EventTimeline,
    *,
    base_temperature: float = 21.0,
) -> tuple[ElectricityCostSchedule, ThermalEnvironment]:
    """The electricity and thermal schedules a timeline describes.

    >>> from repro.scenario.events import TariffChange
    >>> electricity, thermal = build_schedules(
    ...     EventTimeline([TariffChange(time=60.0, cost=0.5)]))
    >>> electricity.cost_at(30.0), electricity.cost_at(90.0)
    (1.0, 0.5)
    """
    electricity = ElectricityCostSchedule()
    thermal = ThermalEnvironment(base_temperature=base_temperature)
    for event in timeline.tariff_changes:
        electricity.add_period(TariffPeriod(start=event.time, cost=event.cost))
    for event in timeline.thermal_excursions:
        thermal.schedule_event(
            ThermalEvent(time=event.time, temperature=event.temperature)
        )
    return electricity, thermal


def install_timeline(
    simulation: "MiddlewareSimulation",
    timeline: EventTimeline,
    *,
    requeue: bool = True,
) -> Sequence["ScheduledEvent"]:
    """Schedule the timeline's fault events on the simulation engine.

    Each :class:`~repro.scenario.events.NodeFailure` becomes an engine
    event invoking ``simulation.fail_node`` (with the given requeue-or-
    fail semantics for displaced tasks), each
    :class:`~repro.scenario.events.NodeRecovery` one invoking
    ``simulation.recover_node``.  Returns the scheduled engine events so
    callers can cancel a timeline if needed.

    Fault events carry ``priority=-1``: at an instant shared with task
    arrivals or completions, the crash fires first — a task completing at
    the exact crash instant is lost, not saved by FIFO luck — keeping
    tie-breaking deterministic and pessimistic.

    Node names are validated against the simulation's platform up front:
    a timeline naming a node the selected platform does not have fails
    here, at assembly time, instead of crashing mid-run when the fault
    fires.
    """
    known = {node.name for node in simulation.platform.nodes}
    unknown = sorted(
        {event.node for event in timeline.node_events if event.node not in known}
    )
    if unknown:
        raise ValueError(
            f"timeline names node(s) {unknown} that do not exist on this "
            f"platform; available: {sorted(known)}"
        )
    handles = []
    for event in timeline.node_events:
        if isinstance(event, NodeFailure):
            handle = simulation.engine.schedule(
                event.time,
                partial(simulation.fail_node, event.node, requeue=requeue),
                priority=-1,
                label=f"fail-{event.node}",
            )
        elif isinstance(event, NodeRecovery):
            handle = simulation.engine.schedule(
                event.time,
                simulation.recover_node,
                args=(event.node,),
                priority=-1,
                label=f"recover-{event.node}",
            )
        else:  # pragma: no cover - node_events only yields the two kinds
            continue
        handles.append(handle)
    return tuple(handles)


def apply_timeline(
    simulation: "MiddlewareSimulation",
    timeline: EventTimeline,
    *,
    base_temperature: float = 21.0,
    requeue: bool = True,
) -> tuple[ElectricityCostSchedule, ThermalEnvironment, Sequence["ScheduledEvent"]]:
    """Wire a whole timeline into a running simulation, in one call.

    Builds the electricity/thermal schedules (for a provisioning planner
    to consume, if one is installed) and schedules the fault events on
    the engine; returns ``(electricity, thermal, fault_handles)``.
    """
    electricity, thermal = build_schedules(timeline, base_temperature=base_temperature)
    handles = install_timeline(simulation, timeline, requeue=requeue)
    return electricity, thermal, handles
