"""Execution tracing.

Every interesting simulation occurrence (task submitted / scheduled /
started / completed, node booted / powered off, candidate-set change,
energy event) is appended to an :class:`ExecutionTrace`.  Experiments and
tests consume the trace to rebuild the paper's figures (task distribution
per node, candidate-count time series) without instrumenting the
scheduling code paths themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping


@dataclass(frozen=True)
class TraceEvent:
    """One trace record: ``kind`` happened at simulated ``time``.

    ``details`` carries kind-specific fields (task id, node name, candidate
    count, ...), kept as a plain mapping so traces are easy to serialise.
    """

    time: float
    kind: str
    details: Mapping[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.details[key]


class ExecutionTrace:
    """Append-only list of :class:`TraceEvent`, iterated in recording order."""

    #: Well-known event kinds emitted by the middleware driver.
    TASK_SUBMITTED = "task_submitted"
    TASK_SCHEDULED = "task_scheduled"
    TASK_STARTED = "task_started"
    TASK_COMPLETED = "task_completed"
    TASK_REJECTED = "task_rejected"
    TASK_FAILED = "task_failed"
    TASK_REQUEUED = "task_requeued"
    NODE_BOOT_STARTED = "node_boot_started"
    NODE_FAILED = "node_failed"
    NODE_RECOVERED = "node_recovered"
    NODE_BOOT_COMPLETED = "node_boot_completed"
    NODE_POWERED_OFF = "node_powered_off"
    CANDIDATES_CHANGED = "candidates_changed"
    STATUS_CHECK = "status_check"

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def record(self, time: float, kind: str, **details: Any) -> TraceEvent:
        """Append a record and return it."""
        event = TraceEvent(time=time, kind=kind, details=dict(details))
        self._events.append(event)
        return event

    # -- queries -----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)
