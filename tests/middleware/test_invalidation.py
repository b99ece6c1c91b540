"""The invalidation contract between SeDs and the structures kept resident on them.

A SeD's cached estimation vector may move on a node transition, a queue
mutation or a power observation.  Each of them must reach every
subscriber — :class:`~repro.middleware.ranking.ResidentRanking` (whose
listener is its dirty set's own ``add``) and
:class:`~repro.core.greenperf.IncrementalGreenPerfOrder` — or a resident
order goes stale without any test noticing the missed update.  The
driver's direct start (a task elected onto a free core with an empty
queue skips enqueue → pop) must leave the same state behind as the
round trip through the queue.
"""

from __future__ import annotations

import pytest

from repro.core.greenperf import IncrementalGreenPerfOrder
from repro.core.policies import PowerPolicy, policy_by_name
from repro.infrastructure.node import Node
from repro.infrastructure.platform import grid5000_placement_platform
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.hierarchy import build_hierarchy
from repro.middleware.ranking import FlatElection, ResidentRanking, WalkReplay
from repro.middleware.requests import ServiceRequest
from repro.middleware.sed import ServerDaemon
from repro.simulation.task import Task, TaskState
from tests.conftest import (
    election_type,
    flat_hierarchy,
    live_events,
    make_spec,
    pending_tasks,
    running_count,
)


def _request() -> ServiceRequest:
    return ServiceRequest.from_task(Task(flop=4.0e9))


def _setup(count: int = 3):
    seds = [
        ServerDaemon(Node(make_spec(name=f"n-{i}", cores=2, idle_power=90.0 + i)))
        for i in range(count)
    ]
    ranking = ResidentRanking(PowerPolicy(), seds)
    order = IncrementalGreenPerfOrder(
        [sed.node for sed in seds], seds={sed.name: sed for sed in seds}
    )
    return seds, ranking, order


def _flush(ranking: ResidentRanking, order: IncrementalGreenPerfOrder) -> None:
    ranking.refresh(_request())
    order.order()
    assert ranking.dirty_servers == frozenset()
    assert not order._dirty


def _running_task(sed: ServerDaemon) -> Task:
    task = Task(flop=2.0e9)
    sed.node.acquire_core()
    sed.queue.mark_running(task)
    return task


def _nothing(sed: ServerDaemon) -> None:
    return None


#: Every trigger that can move a SeD's estimation vector, as
#: ``(set-up, trigger)``: the set-up's notifications are flushed away,
#: so only the trigger itself is observed.
TRIGGERS = {
    "acquire_core": (_nothing, lambda sed, _: sed.node.acquire_core()),
    "release_core": (
        lambda sed: sed.node.acquire_core(),
        lambda sed, _: sed.node.release_core(),
    ),
    "power_off": (_nothing, lambda sed, _: sed.node.power_off()),
    "begin_boot": (
        lambda sed: sed.node.power_off(),
        lambda sed, _: sed.node.begin_boot(0.0),
    ),
    "complete_boot": (
        lambda sed: (sed.node.power_off(), sed.node.begin_boot(0.0)),
        lambda sed, _: sed.node.complete_boot(),
    ),
    "fail": (_nothing, lambda sed, _: sed.node.fail()),
    "repair": (lambda sed: sed.node.fail(), lambda sed, _: sed.node.repair()),
    "enqueue": (_nothing, lambda sed, _: sed.queue.enqueue(Task())),
    "pop_next": (
        lambda sed: sed.queue.enqueue(Task()),
        lambda sed, _: sed.queue.pop_next(),
    ),
    "mark_running": (_nothing, lambda sed, _: sed.queue.mark_running(Task())),
    "mark_completed": (_running_task, lambda sed, task: sed.queue.mark_completed(task)),
    "forget_running": (_running_task, lambda sed, task: sed.queue.forget_running(task)),
    "drain_pending": (
        lambda sed: sed.queue.enqueue(Task()),
        lambda sed, _: sed.queue.drain_pending(),
    ),
    "record_request_power": (
        _nothing,
        lambda sed, _: sed.record_request_power(150.0),
    ),
}


class TestEveryTriggerReachesEverySubscriber:
    @pytest.mark.parametrize("trigger", sorted(TRIGGERS))
    def test_trigger_marks_the_sed_dirty_in_both_structures(self, trigger):
        seds, ranking, order = _setup()
        sed = seds[1]
        setup, fire = TRIGGERS[trigger]
        state = setup(sed)
        _flush(ranking, order)
        fire(sed, state)
        assert ranking.dirty_servers == frozenset({sed.name})
        assert order._dirty == {sed}
        assert not sed.estimation_cached


class TestSubscriptions:
    @pytest.mark.parametrize(
        "policy, path",
        [("POWER", ResidentRanking), ("GREEN_SCORE", FlatElection), ("RANDOM", WalkReplay)],
    )
    def test_each_election_adds_one_listener_per_sed(self, policy, path):
        seds = [
            ServerDaemon(Node(make_spec(name=f"n-{i}", idle_power=90.0 + i))) for i in range(3)
        ]
        order = IncrementalGreenPerfOrder(
            [sed.node for sed in seds], seds={sed.name: sed for sed in seds}
        )
        master = flat_hierarchy(seds, scheduler=policy_by_name(policy))
        for _ in range(2):
            master.submit(_request())
        assert election_type(master) is path
        for sed in seds:
            assert sed._invalidation_listeners == [order._dirty.add, master._election._dirty.add]


def _simulation():
    platform = grid5000_placement_platform(nodes_per_cluster=1)  # 26 cores
    master, seds = build_hierarchy(platform, scheduler=policy_by_name("POWER"))
    return MiddlewareSimulation(platform, master, seds, trace_level="off")


def _observe(simulation: MiddlewareSimulation, sed_name: str):
    """Queue state, the SeD's vector and the ranking, as comparable values."""
    sed = simulation.seds[sed_name]
    request = _request()
    queue = sed.queue
    candidates = simulation.master._current_election().candidates(request)
    return (
        [task.task_id for task in pending_tasks(queue)],
        running_count(queue),
        queue.waiting_time_estimate(),
        dict(sed.estimate(request).values),
        [(entry.server, dict(entry.estimation.values)) for entry in candidates],
        simulation.running_tasks,
        live_events(simulation.engine),
    )


class TestDirectStart:
    def test_direct_start_equals_enqueue_then_pop(self):
        """Each injected task: the driver's path vs the queue round trip."""
        direct, queued = _simulation(), _simulation()
        for simulation in (direct, queued):
            simulation.master._current_election()  # build the ranking
        for index in range(40):
            task_a = Task(flop=2.0e9, task_id=10_000 + index)
            task_b = Task(flop=2.0e9, task_id=10_000 + index)
            outcome = direct.inject_task(task_a)
            assert outcome.succeeded
            sed = queued.seds[outcome.elected]
            # The round trip the driver skips: enqueue, then start what pops.
            task_b.state = TaskState.QUEUED
            sed.queue.enqueue(task_b)
            queued._try_start(sed, queued.engine.now)
            assert task_a.state is task_b.state
            assert _observe(direct, outcome.elected) == _observe(queued, outcome.elected)
        # The platform fills up, so later tasks took the queued path too.
        assert any(sed.queue.pending_count for sed in direct.seds.values())
        assert direct.run().metrics == queued.run().metrics

    def test_a_waiting_task_keeps_its_fifo_place(self):
        """A free core with a non-empty queue takes the queue path: FIFO holds."""
        simulation = _simulation()
        elected = simulation.master.submit(_request()).elected
        sed = simulation.seds[elected]
        waiting = Task(flop=2.0e9)
        sed.queue.enqueue(waiting)  # behind the driver's back: a free core idles
        outcome = simulation.inject_task(Task(flop=2.0e9))
        assert outcome.elected == elected
        assert waiting.state is TaskState.RUNNING
        assert sed.queue.pending_count == 0
        assert running_count(sed.queue) == 2
