"""Client-side request API.

A DIET client "uses the DIET infrastructure for remote problem solving"
(Section II-A): it submits a problem description to the Master Agent and
then contacts the elected SeD.  In this reproduction the client is a thin
convenience wrapper that builds :class:`ServiceRequest` objects from tasks
and submits them; the actual execution is driven by
:class:`repro.middleware.driver.MiddlewareSimulation`.
"""

from __future__ import annotations

from repro.middleware.agents import MasterAgent
from repro.middleware.requests import SchedulingOutcome, ServiceRequest
from repro.simulation.task import Task


class Client:
    """A request-submitting client bound to a Master Agent."""

    def __init__(self, master: MasterAgent) -> None:
        self.master = master

    def submit(self, task: Task, *, submitted_at: float | None = None) -> SchedulingOutcome:
        """Submit ``task`` to the Master Agent with the task's own preference.

        The request is submitted at ``submitted_at``, or at the task's
        arrival time when that is ``None``.
        """
        return self.master.submit(ServiceRequest.from_task(task, submitted_at=submitted_at))
