"""Task model.

The paper's unit of work is "a CPU-bound problem which consists in 1e8
successive additions" (Section IV-A), i.e. a single-core task whose cost
is expressed in floating-point operations (``n_i`` in the paper's
notation).  Tasks are independent and carry no priority (Section III-A);
a user-level preference value may accompany a request (Section III-B).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.util.validation import ensure_in_range, ensure_non_negative, ensure_positive

_INF = math.inf

#: FLOP cost of the paper's unit task.
DEFAULT_TASK_FLOP = 1.0e8

_task_counter = itertools.count()


def _next_task_id() -> int:
    return next(_task_counter)


class TaskState(enum.Enum):
    """Lifecycle of a task inside the simulation."""

    SUBMITTED = "submitted"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    REJECTED = "rejected"
    FAILED = "failed"


@dataclass
class Task:
    """An independent, single-core, CPU-bound task.

    Parameters
    ----------
    flop:
        Number of floating-point operations (``n_i``).
    arrival_time:
        Simulated time at which the client submits the request (s).
    client:
        Identifier of the submitting client (used in multi-client scenarios).
    user_preference:
        The request's ``Preference_user`` value in ``[-1, 1]``
        (−1: maximise performance, 0: no preference, +1: maximise energy
        efficiency).  See Section III-B.
    service:
        Name of the requested computational service; the default matches
        the paper's single CPU-bound problem.
    cores:
        Width of the job in cores.  The middleware placement path runs
        every task on one core (the paper's model); trace-derived tasks
        keep their SWF ``allocated_processors`` here so the queue-family
        backfill policies (:mod:`repro.policy.queue`) can plan with real
        widths.
    requested_runtime:
        The user-declared wall limit in seconds (SWF ``requested_time``),
        or ``None`` when unknown.  Only consumed by the queue family —
        backfill plans against the limit, not the true runtime.
    """

    flop: float = DEFAULT_TASK_FLOP
    arrival_time: float = 0.0
    client: str = "client-0"
    user_preference: float = 0.0
    service: str = "cpu-burn"
    cores: int = 1
    requested_runtime: float | None = None
    task_id: int = field(default_factory=_next_task_id)
    state: TaskState = field(default=TaskState.SUBMITTED, compare=False)

    def __post_init__(self) -> None:
        ensure_positive(self.flop, "flop")
        ensure_non_negative(self.arrival_time, "arrival_time")
        ensure_in_range(self.user_preference, "user_preference", -1.0, 1.0)
        if not self.service:
            raise ValueError("service must be a non-empty string")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.requested_runtime is not None:
            ensure_non_negative(self.requested_runtime, "requested_runtime")

    def duration_on(self, flops_per_core: float) -> float:
        """Execution time (s) on a core sustaining ``flops_per_core`` FLOP/s."""
        if not (type(flops_per_core) is float and 0.0 < flops_per_core < _INF):
            ensure_positive(flops_per_core, "flops_per_core")
        return self.flop / flops_per_core


class _ExecutionFields(NamedTuple):
    task_id: int
    node: str
    cluster: str
    submitted_at: float
    started_at: float
    completed_at: float


class TaskExecution(_ExecutionFields):
    """Completed execution record of a task on a node.

    ``queue_delay`` is the time spent waiting between submission and the
    start of execution.  The task's energy is not kept here: platform
    energy comes from the segment log, and the execution trace records
    each task's attributed share.

    An immutable, validated named tuple: one is allocated per completed
    task, so it skips a frozen dataclass's per-field ``__setattr__``.
    Construction (also through ``_make`` and ``_replace``) checks the
    time ordering.
    """

    __slots__ = ()

    def __new__(
        cls,
        task_id: int,
        node: str,
        cluster: str,
        submitted_at: float,
        started_at: float,
        completed_at: float,
    ) -> "TaskExecution":
        if started_at < submitted_at:
            raise ValueError("a task cannot start before it is submitted")
        if completed_at < started_at:
            raise ValueError("a task cannot complete before it starts")
        return tuple.__new__(cls, (task_id, node, cluster, submitted_at, started_at, completed_at))

    @classmethod
    def _make(cls, iterable) -> "TaskExecution":
        return cls(*iterable)

    @property
    def duration(self) -> float:
        """Wall-clock execution time (s)."""
        return self.completed_at - self.started_at

    @property
    def queue_delay(self) -> float:
        """Time spent waiting before execution (s)."""
        return self.started_at - self.submitted_at

    @property
    def response_time(self) -> float:
        """Submission-to-completion latency (s)."""
        return self.completed_at - self.submitted_at
