"""Per-node task queues and waiting-time estimation.

The paper's score function (Eq. 4) needs ``w_s``, the "estimation of tasks
waiting queue on server s (seconds)".  Each SeD maintains a FIFO queue of
tasks that have been assigned to the node but have not started because all
cores are busy; the waiting-time estimate is derived from the work in the
queue and in flight divided by the node's processing capacity.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from repro.infrastructure.node import Node
from repro.simulation.task import Task

#: Callback invoked after any mutation that can move a queue's
#: waiting-time estimate (enqueue, start, completion, crash drain).
QueueListener = Callable[[], None]


class NodeQueue:
    """FIFO queue of tasks assigned to one node but not yet running."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self._pending: Deque[Task] = deque()
        self._running_remaining_flop: dict[int, float] = {}
        self._listeners: list[QueueListener] = []

    # -- change notification ----------------------------------------------------
    def add_listener(self, listener: QueueListener) -> None:
        """Subscribe to queue mutations.

        ``listener()`` fires after every mutation that can change
        :meth:`waiting_time_estimate` — this is how the SeD's cached
        estimation vector is invalidated incrementally instead of being
        rebuilt on every request.
        """
        self._listeners.append(listener)

    def _changed(self) -> None:
        for listener in self._listeners:
            listener()

    # -- queue operations -------------------------------------------------------
    def enqueue(self, task: Task) -> None:
        """Append an assigned task to the waiting queue."""
        self._pending.append(task)
        if self._listeners:
            self._changed()

    def pop_next(self) -> Task | None:
        """Remove and return the oldest waiting task, or ``None`` if empty."""
        if not self._pending:
            return None
        task = self._pending.popleft()
        if self._listeners:
            self._changed()
        return task

    def mark_running(self, task: Task) -> None:
        """Record that ``task`` has started executing on the node."""
        self._running_remaining_flop[task.task_id] = task.flop
        if self._listeners:
            self._changed()

    def mark_completed(self, task: Task) -> None:
        """Record that ``task`` has finished executing on the node."""
        self._running_remaining_flop.pop(task.task_id, None)
        if self._listeners:
            self._changed()

    def forget_running(self, task: Task) -> None:
        """Drop a running task's bookkeeping without completing it.

        Used when the node crashes: the task did not finish, but it no
        longer occupies the node either.
        """
        self._running_remaining_flop.pop(task.task_id, None)
        if self._listeners:
            self._changed()

    def drain_pending(self) -> tuple[Task, ...]:
        """Remove and return every waiting task (oldest first).

        Used when the node crashes: a dead node's queue cannot start
        anything, so the driver takes the tasks back and requeues or
        fails them.
        """
        drained = tuple(self._pending)
        self._pending.clear()
        if self._listeners:
            self._changed()
        return drained

    # -- introspection -------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of waiting tasks."""
        return len(self._pending)

    @property
    def backlog_flop(self) -> float:
        """Total FLOPs waiting in the queue (not counting running tasks)."""
        return sum(task.flop for task in self._pending)

    def waiting_time_estimate(self) -> float:
        """Estimated delay (s) before a *new* task would start on this node.

        The estimate assumes the node keeps all cores busy: the waiting
        work (queued FLOPs plus an upper bound on the in-flight FLOPs) is
        divided by the node's aggregate throughput.  When free cores exist
        and nothing is queued, the estimate is zero — the new task starts
        immediately.
        """
        if self.node.free_cores > 0 and not self._pending:
            return 0.0
        outstanding = self.backlog_flop + sum(self._running_remaining_flop.values())
        return outstanding / self.node.spec.total_flops
