"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.infrastructure.node import Node, NodeSpec
from repro.infrastructure.platform import grid5000_placement_platform
from repro.lab import LabSession, PlatformSource, WorkloadSource
from repro.middleware.agents import MasterAgent
from repro.middleware.estimation import EstimationTags, EstimationVector
from repro.middleware.ranking import WalkReplay
from repro.simulation.task import Task
from repro.workload.generator import BurstThenContinuousWorkload
from tests.wattmeter import Wattmeter


def make_spec(
    name: str = "node-0",
    cluster: str = "test",
    *,
    cores: int = 4,
    flops_per_core: float = 2.0e9,
    idle_power: float = 100.0,
    peak_power: float = 200.0,
    boot_power: float = 150.0,
    boot_time: float = 60.0,
    memory_gb: float = 16.0,
) -> NodeSpec:
    """Build a node spec with sensible defaults, overridable per test."""
    return NodeSpec(
        name=name,
        cluster=cluster,
        cores=cores,
        flops_per_core=flops_per_core,
        idle_power=idle_power,
        peak_power=peak_power,
        boot_power=boot_power,
        boot_time=boot_time,
        memory_gb=memory_gb,
    )


def off_node(spec: NodeSpec) -> Node:
    """A node powered off the way the provisioning planner does it."""
    node = Node(spec)
    node.power_off()
    return node


def make_vector(
    server: str = "node-0",
    cluster: str = "test",
    *,
    flops_per_core: float = 2.0e9,
    cores: float = 4,
    free_cores: float = 4,
    waiting_time: float = 0.0,
    mean_power: float = 200.0,
    idle_power: float = 100.0,
    peak_power: float = 200.0,
    boot_power: float = 150.0,
    boot_time: float = 60.0,
    available: bool = True,
) -> EstimationVector:
    """Build a complete estimation vector for scheduler tests."""
    vector = EstimationVector(server=server, cluster=cluster)
    vector.set(EstimationTags.FLOPS_PER_CORE, flops_per_core)
    vector.set(EstimationTags.TOTAL_FLOPS, flops_per_core * cores)
    vector.set(EstimationTags.FREE_CORES, free_cores)
    vector.set(EstimationTags.TOTAL_CORES, cores)
    vector.set(EstimationTags.WAITING_TIME, waiting_time)
    vector.set(EstimationTags.COMPLETED_TASKS, 0.0)
    vector.set(EstimationTags.MEAN_POWER, mean_power)
    vector.set(EstimationTags.IDLE_POWER, idle_power)
    vector.set(EstimationTags.PEAK_POWER, peak_power)
    vector.set(EstimationTags.BOOT_POWER, boot_power)
    vector.set(EstimationTags.BOOT_TIME, boot_time)
    vector.set(EstimationTags.NODE_AVAILABLE, 1.0 if available else 0.0)
    return vector


class TreeWalk:
    """The per-request hierarchy walk of Section III-A: propagate, collect, sort.

    The oracle every election strategy of :mod:`repro.middleware.ranking`
    is proven equal to (:func:`force_tree_walk` pins a Master Agent to
    it).  Its output need not be the Master Agent's own ``sort`` output (it
    may end in a child's sort when only one child has candidates), so the
    Master Agent re-sorts the entries its candidate set allows, as under
    :class:`~repro.middleware.ranking.WalkReplay`.
    """

    def __init__(self, master) -> None:
        self._master = master

    def refresh(self, request) -> None:
        """Nothing to refresh: every election estimates every SeD."""

    def candidates(self, request):
        """The Master Agent's ``collect_candidates`` for ``request``."""
        return self._master.collect_candidates(request)

    def elect(self, request, allowed=None):
        """The head of the walk's ranking after the candidate set, or ``None``."""
        ranked = allowed_ranking(self, self._master, request, allowed)
        return ranked[0] if ranked else None


def force_tree_walk(master):
    """Pin ``master`` to the per-request tree walk, the equivalence oracle.

    Call it before ``master``'s first election; returns ``master``.
    """
    assert master._election is None, "the strategy is chosen at the first election"
    master._choose_election = TreeWalk
    return master


def recorded_requests(monkeypatch, master) -> list:
    """Every request ``master`` is sent from now on; it still elects as before."""
    requests = []
    submit = master.submit

    def record(request):
        requests.append(request)
        return submit(request)

    monkeypatch.setattr(master, "submit", record)
    return requests


def flat_hierarchy(seds, *, scheduler=None) -> MasterAgent:
    """Every SeD directly under one Master Agent (the simplest topology)."""
    master = MasterAgent(scheduler=scheduler)
    for sed in seds:
        master.add_sed(sed)
    return master


def election_type(master) -> type:
    """The class of ``master``'s election strategy (chosen on first use)."""
    return type(master._current_election())


def allowed_ranking(election, master, request, allowed) -> list:
    """The reference for an election under the candidate set ``allowed``.

    ``election``'s candidates, cut to the servers in ``allowed`` (all of
    them when it names none, or is ``None``); a replayed or real tree walk
    re-sorts them with the Master Agent's scheduler.  Its head is what
    ``MasterAgent.submit`` elects.
    """
    ranked = list(election.candidates(request))
    if allowed is None or not ranked:
        return ranked
    kept = [entry for entry in ranked if entry.server in allowed] or ranked
    if isinstance(election, (WalkReplay, TreeWalk)):
        kept = master.scheduler.sort(request, kept)
    return kept


def ranking(master, request) -> list:
    """What ``master`` would rank for ``request`` under its candidate filter.

    This runs one election (a RANDOM policy draws, and draws again for
    the re-sort of a walk under a candidate set).
    """
    election = master._current_election()
    return allowed_ranking(election, master, request, master.candidate_filter)


def steady_workload(total_tasks: int) -> BurstThenContinuousWorkload:
    """One 1-GFLOP task per second from t = 0: a burst of one, then a 1/s stream."""
    return BurstThenContinuousWorkload(
        total_tasks=total_tasks, burst_size=1, continuous_rate=1.0, flop_per_task=1e9
    )


def next_event_time(engine) -> float | None:
    """Firing time of the engine's next live event, or ``None`` when none is left."""
    live = [time for time, _, _, event in engine._heap if not event.cancelled]
    return min(live, default=None)


def live_events(engine) -> int:
    """Callbacks still to fire: every item of a live batch counts."""
    return sum(
        1 if event.items is None else len(event.items)
        for *_, event in engine._heap
        if not event.cancelled
    )


def executions(metrics) -> tuple:
    """The task executions a metrics collector has recorded, in recording order."""
    return tuple(metrics._executions)


def pending_tasks(queue) -> list:
    """The tasks a node queue holds waiting for a core, oldest first."""
    return list(queue._pending)


def running_count(queue) -> int:
    """The tasks a node queue has marked running and not yet completed."""
    return len(queue._running_remaining_flop)


def of_kind(trace, kind: str) -> tuple:
    """The records of one kind in an execution trace, in recording order."""
    return tuple(event for event in trace if event.kind == kind)


def last_of_kind(trace, kind: str):
    """The most recent record of one kind, or ``None``."""
    matching = of_kind(trace, kind)
    return matching[-1] if matching else None


def served_state(platform=None, **session):
    """A :class:`ServeState` opened by a served :class:`LabSession`.

    ``platform`` defaults to Table I at one node per cluster; the other
    keywords are session fields (``policy``, ``timeline``, …).
    """
    return LabSession(
        platform=platform or PlatformSource.table1(1),
        workload=WorkloadSource.served(),
        **session,
    ).open_state()


def write_timeline(path, timeline, *, title: str | None = None) -> None:
    """Write ``timeline`` as a JSON timeline file ``load_timeline`` reads back."""
    payload: dict = {"title": title} if title else {}
    payload["events"] = timeline.to_mappings()
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", "utf-8")


def run_beside_meter(simulation):
    """Run ``simulation`` with a polling :class:`Wattmeter` stepped beside it.

    The meter is advanced to each event's time before the event fires —
    the seed driver's sampling discipline — and then to the final clock,
    so its log is the oracle the accountant's segment log must match.
    Returns ``(result, meter_log)``.
    """
    engine = simulation.engine
    meter = Wattmeter(
        simulation.platform.nodes, sample_period=simulation.energy_log.sample_period
    )
    while (time := next_event_time(engine)) is not None:
        meter.advance_to(time)
        engine.step()
    meter.advance_to(engine.now)
    return simulation.run(), meter.log


@pytest.fixture
def spec() -> NodeSpec:
    """A default node spec."""
    return make_spec()

@pytest.fixture
def node(spec: NodeSpec) -> Node:
    """A powered-on node built from the default spec."""
    return Node(spec)


@pytest.fixture
def small_platform():
    """A 1-node-per-cluster Grid'5000-style platform (3 nodes)."""
    return grid5000_placement_platform(nodes_per_cluster=1)


@pytest.fixture
def placement_platform():
    """The full Table I platform (12 nodes)."""
    return grid5000_placement_platform()


@pytest.fixture
def task() -> Task:
    """A default unit task."""
    return Task(flop=1.0e8, arrival_time=0.0)

