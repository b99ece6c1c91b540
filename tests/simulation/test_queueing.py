"""Tests for per-node queues and waiting-time estimation."""

import pytest

from repro.infrastructure.node import Node
from repro.simulation.queueing import NodeQueue
from repro.simulation.task import Task
from tests.conftest import make_spec, running_count


def make_node(cores=2, flops=1.0e9):
    return Node(make_spec(cores=cores, flops_per_core=flops))


class TestNodeQueue:
    def test_empty_queue(self):
        queue = NodeQueue(make_node())
        assert queue.pending_count == 0
        assert queue.pop_next() is None
        assert queue.backlog_flop == 0.0
        assert queue.waiting_time_estimate() == 0.0

    def test_fifo_order(self):
        queue = NodeQueue(make_node())
        first, second = Task(flop=1e8), Task(flop=1e8)
        queue.enqueue(first)
        queue.enqueue(second)
        assert queue.pop_next() is first
        assert queue.pop_next() is second

    def test_backlog_tracks_pending_flop(self):
        queue = NodeQueue(make_node())
        queue.enqueue(Task(flop=2e8))
        queue.enqueue(Task(flop=3e8))
        assert queue.backlog_flop == pytest.approx(5e8)

    def test_running_bookkeeping(self):
        queue = NodeQueue(make_node())
        task = Task(flop=1e9)
        queue.mark_running(task)
        assert running_count(queue) == 1
        queue.mark_completed(task)
        assert running_count(queue) == 0

    def test_mark_completed_unknown_task_is_noop(self):
        queue = NodeQueue(make_node())
        queue.mark_completed(Task())
        assert running_count(queue) == 0

    def test_waiting_time_zero_when_core_free_and_empty(self):
        node = make_node(cores=2)
        queue = NodeQueue(node)
        node.acquire_core()
        assert queue.waiting_time_estimate() == 0.0

    def test_waiting_time_accounts_for_backlog(self):
        node = make_node(cores=2, flops=1.0e9)  # total 2e9 FLOP/s
        queue = NodeQueue(node)
        node.acquire_core()
        node.acquire_core()
        running = Task(flop=2e9)
        queue.mark_running(running)
        queue.enqueue(Task(flop=2e9))
        # 4e9 outstanding FLOP / 2e9 FLOP/s = 2 s.
        assert queue.waiting_time_estimate() == pytest.approx(2.0)

    def test_waiting_time_positive_when_all_cores_busy(self):
        node = make_node(cores=1, flops=1.0e9)
        queue = NodeQueue(node)
        node.acquire_core()
        running = Task(flop=5e9)
        queue.mark_running(running)
        assert queue.waiting_time_estimate() == pytest.approx(5.0)
