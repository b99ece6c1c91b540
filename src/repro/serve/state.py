"""Live platform state behind the placement service.

A :class:`ServeState` holds one assembled middleware stack — platform,
agent hierarchy, discrete-event engine, energy accountant — and keeps it
*resident* between requests instead of rebuilding it per run the way a
batch experiment does.  The daemon in :mod:`repro.serve.service` owns one
instance and funnels every admitted submission through
:meth:`place_batch`.

Virtual clock
-------------
The state advances the embedded engine to each submission's virtual
timestamp, so placements depend only on the *timestamps* the clients
send, never on wall-clock pacing.  That is the property the determinism
tests lean on: replaying a trace at 1000x acceleration (or as fast as
the sockets allow) produces bit-identical elections to the closed-loop
simulation of the same trace, because both walk the same event sequence
on the same virtual clock.

Event ordering
--------------
A closed-loop run schedules every arrival up front, so at equal
timestamps arrivals fire before the completions scheduled mid-run (FIFO
among equal time and priority).  A served arrival is scheduled *late* —
after the completions already in the heap — so at priority 0 it would
fire after a same-instant completion and diverge from the closed-loop
ordering.  Serve arrivals therefore use :data:`ARRIVAL_PRIORITY` (-1):
they beat same-time completions (priority 0) while still firing after
timeline fault events (also -1, but scheduled at setup and hence with
lower sequence numbers) — exactly the closed-loop order.

:meth:`repro.lab.session.LabSession.open_state` builds the stack through
the same assembly as a batch run, with SeDs offering
:data:`~repro.middleware.sed.WILDCARD_SERVICE`, because a live daemon
cannot enumerate the services of a request stream it has not seen yet.
Elections are unaffected: in the closed-loop run every SeD offers every
service the workload requests, so the candidate sets are identical
either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.middleware.driver import MiddlewareSimulation, SimulationResult
from repro.simulation.task import Task

#: Priority of served arrival events (see "Event ordering" above).
ARRIVAL_PRIORITY = -1


@dataclass(frozen=True)
class PlacementDecision:
    """The scheduler's answer for one served task."""

    task_id: int
    time: float  # virtual time the election happened at
    node: str | None  # None when no SeD could serve the request
    cluster: str | None = None

    @property
    def accepted(self) -> bool:
        """Whether the task was placed on a node."""
        return self.node is not None


class ServeState:
    """One resident middleware stack, advanced by submissions.

    Open one with :meth:`repro.lab.session.LabSession.open_state` (a
    session over ``WorkloadSource.served()``) or wrap an existing
    :class:`MiddlewareSimulation` directly.
    """

    def __init__(self, simulation: MiddlewareSimulation) -> None:
        self._simulation = simulation
        self._decisions = 0

    # -- clock ------------------------------------------------------------------
    @property
    def simulation(self) -> MiddlewareSimulation:
        """The resident middleware stack."""
        return self._simulation

    @property
    def now(self) -> float:
        """Current virtual time (s)."""
        return self._simulation.engine.now

    @property
    def policy(self) -> str:
        """Name of the plug-in policy electing nodes."""
        return self._simulation.metrics.policy

    # -- placement ----------------------------------------------------------------
    def place_batch(self, tasks: Sequence[Task]) -> list[PlacementDecision]:
        """Elect a node for every task of one micro-batch, in order.

        Each task arrives at its own ``arrival_time``, clamped so the
        batch is monotone (a timestamp below the previous arrival or the
        current clock is lifted to it — virtual time cannot go
        backwards).  Events due between two arrivals (completions, faults)
        fire in between, exactly as they would in a closed-loop run.
        """
        engine = self._simulation.engine
        decisions: list[PlacementDecision | None] = [None] * len(tasks)
        at = engine.now
        # Only an event's repr reads its label: label arrivals only when tracing.
        labelled = self._simulation.trace_on
        for index, task in enumerate(tasks):
            at = max(at, task.arrival_time)
            engine.schedule(
                at,
                self._arrive,
                args=(task, decisions, index),
                priority=ARRIVAL_PRIORITY,
                label=f"serve-arrival-{task.task_id}" if labelled else "",
            )
        engine.run(until=at)
        return decisions  # type: ignore[return-value]  # every slot was filled

    def _arrive(
        self, task: Task, decisions: list[PlacementDecision | None], index: int
    ) -> None:
        outcome = self._simulation.inject_task(task)
        self._decisions += 1
        if outcome.succeeded:
            sed = self._simulation.seds[outcome.elected]
            decisions[index] = PlacementDecision(
                task_id=task.task_id, time=self.now, node=sed.name, cluster=sed.cluster
            )
        else:
            decisions[index] = PlacementDecision(
                task_id=task.task_id, time=self.now, node=None
            )

    # -- lifecycle -----------------------------------------------------------------
    def drain(self) -> SimulationResult:
        """Run every pending event (completions included) and summarise.

        Called at daemon shutdown: the report carries the same metrics a
        batch run of the served workload would have produced.
        """
        return self._simulation.run()

    # -- introspection -------------------------------------------------------------
    def snapshot(self) -> dict:
        """Live counters for the daemon's ``/stats`` endpoint."""
        simulation = self._simulation
        return {
            "time": self.now,
            "policy": self.policy,
            "decisions": self._decisions,
            "submitted": simulation.submitted_tasks,
            "completed": simulation.metrics.task_count,
            "running": simulation.running_tasks,
            "in_flight": simulation.in_flight_tasks,
            "rejected": simulation.rejected_tasks,
            "failed": simulation.failed_tasks,
            "nodes": {
                name: {
                    "state": sed.node.state.name.lower(),
                    "free_cores": sed.node.free_cores,
                    "queued": sed.queue.pending_count,
                }
                for name, sed in sorted(simulation.seds.items())
            },
        }
