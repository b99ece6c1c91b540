"""Client requests and scheduling outcomes.

A :class:`ServiceRequest` is what travels down the agent hierarchy: the
problem description (service name, task cost) plus the requesting user's
energy/performance preference.  A :class:`SchedulingOutcome` is what the
Master Agent returns to the client: the elected SeD (step 4 of the
scheduling process in Section III-A).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.simulation.task import Task


class ServiceRequest(NamedTuple):
    """A problem submission travelling through the hierarchy.

    An immutable named tuple (one is built per arrival).

    Parameters
    ----------
    task:
        The underlying unit of work (cost, client, service name).
    user_preference:
        ``Preference_user`` for this request, in ``[-1, 1]``.  Defaults to
        the task's own preference value.
    submitted_at:
        Simulated submission time (s).
    """

    task: Task
    user_preference: float
    submitted_at: float

    @classmethod
    def from_task(cls, task: Task, *, submitted_at: float | None = None) -> "ServiceRequest":
        """Wrap a task into a request, inheriting its preference and arrival time."""
        return cls(
            task=task,
            user_preference=task.user_preference,
            submitted_at=task.arrival_time if submitted_at is None else submitted_at,
        )

    @property
    def service(self) -> str:
        """Requested computational service."""
        return self.task.service


class SchedulingOutcome(NamedTuple):
    """Result of propagating one request through the hierarchy.

    ``elected`` is the SeD name chosen to solve the problem (``None`` when
    no server can serve the request — the error case of step 1 in
    Section III-A).  An immutable named tuple (one is built per arrival).
    """

    elected: str | None

    @property
    def succeeded(self) -> bool:
        """Whether a server was elected."""
        return self.elected is not None
