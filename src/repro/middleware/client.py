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
from repro.util.validation import ensure_in_range


class Client:
    """A request-submitting client bound to a Master Agent."""

    def __init__(
        self,
        master: MasterAgent,
        *,
        name: str = "client-0",
        default_preference: float = 0.0,
    ) -> None:
        if not name:
            raise ValueError("client name must be a non-empty string")
        ensure_in_range(default_preference, "default_preference", -1.0, 1.0)
        self.master = master
        self.name = name
        self.default_preference = default_preference

    def make_request(
        self,
        task: Task,
        *,
        submitted_at: float | None = None,
        user_preference: float | None = None,
    ) -> ServiceRequest:
        """Build the request describing ``task``.

        ``user_preference`` overrides both the task's preference and the
        client default; otherwise the task preference wins when non-zero,
        falling back to the client default.
        """
        if user_preference is None:
            user_preference = (
                task.user_preference if task.user_preference != 0.0 else self.default_preference
            )
        if not (type(user_preference) is float and -1.0 <= user_preference <= 1.0):
            ensure_in_range(user_preference, "user_preference", -1.0, 1.0)
        return ServiceRequest(
            task=task,
            user_preference=user_preference,
            submitted_at=task.arrival_time if submitted_at is None else submitted_at,
        )

    def submit(
        self,
        task: Task,
        *,
        submitted_at: float | None = None,
        user_preference: float | None = None,
    ) -> SchedulingOutcome:
        """Submit ``task`` to the Master Agent."""
        request = self.make_request(
            task, submitted_at=submitted_at, user_preference=user_preference
        )
        return self.master.submit(request)
