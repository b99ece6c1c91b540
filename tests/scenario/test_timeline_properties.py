"""Property-based tests: random timelines preserve engine invariants.

Whatever event stream hypothesis throws at the simulation — tariff
steps, thermal excursions, crash/repair storms, workload bursts — the
engine must keep its core invariants:

* the clock never goes backwards;
* tasks are conserved: every submitted task ends exactly once
  (completed, rejected or failed);
* core occupancy stays within ``[0, cores]`` on every node (violations
  raise inside the node state machine, so surviving the run *is* the
  assertion — plus explicit end-state checks);
* per-node energy segments partition ``[0, end)`` with no gaps or
  overlaps, even across crash/recovery boundaries.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.infrastructure.platform import grid5000_placement_platform
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.hierarchy import build_hierarchy
from repro.scenario.apply import install_timeline
from repro.scenario.events import (
    EventTimeline,
    NodeFailure,
    NodeRecovery,
    TariffChange,
    ThermalExcursion,
    WorkloadBurst,
)
from repro.simulation.task import Task
from tests.conftest import of_kind

NODE_NAMES = ("orion-0", "taurus-0", "sagittaire-0")
HORIZON = 600.0

times = st.floats(min_value=0.0, max_value=HORIZON, allow_nan=False)


@st.composite
def crash_streams(draw):
    """Valid per-node alternating failure/recovery sequences."""
    events = []
    for node in NODE_NAMES:
        stamps = sorted(
            draw(st.lists(times, max_size=6, unique=True))
        )
        for index, stamp in enumerate(stamps):
            if index % 2 == 0:
                events.append(NodeFailure(time=stamp, node=node))
            else:
                events.append(NodeRecovery(time=stamp, node=node))
    return events


@st.composite
def timelines(draw):
    events = list(draw(crash_streams()))
    for cost in draw(st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.0]), max_size=3)):
        events.append(TariffChange(time=draw(times), cost=cost))
    for temperature in draw(
        st.lists(st.floats(min_value=15.0, max_value=35.0), max_size=3)
    ):
        events.append(ThermalExcursion(time=draw(times), temperature=temperature))
    for factor in draw(
        st.lists(st.floats(min_value=0.25, max_value=4.0), max_size=2)
    ):
        events.append(
            WorkloadBurst(
                time=draw(times),
                duration=draw(st.floats(min_value=1.0, max_value=HORIZON)),
                factor=factor,
            )
        )
    return EventTimeline(events)


workloads = st.lists(
    st.tuples(
        st.floats(min_value=1e9, max_value=5e11),          # flop
        st.floats(min_value=0.0, max_value=HORIZON / 2),   # arrival
    ),
    min_size=1,
    max_size=20,
)

requeue_flags = st.booleans()


def _run(timeline: EventTimeline, rows, requeue: bool):
    platform = grid5000_placement_platform(nodes_per_cluster=1)
    master, seds = build_hierarchy(platform)
    simulation = MiddlewareSimulation(platform, master, seds)
    tasks = [Task(flop=flop, arrival_time=arrival) for flop, arrival in rows]
    simulation.submit_workload(tasks)
    install_timeline(simulation, timeline, requeue=requeue)
    result = simulation.run()
    return platform, simulation, tasks, result


class TestTimelineInvariants:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(timeline=timelines(), rows=workloads, requeue=requeue_flags)
    def test_clock_is_monotonic(self, timeline, rows, requeue):
        platform, simulation, tasks, result = _run(timeline, rows, requeue)
        trace_times = [event.time for event in simulation.trace]
        assert trace_times == sorted(trace_times)
        assert simulation.engine.now >= 0.0

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(timeline=timelines(), rows=workloads, requeue=requeue_flags)
    def test_tasks_are_conserved(self, timeline, rows, requeue):
        platform, simulation, tasks, result = _run(timeline, rows, requeue)
        ended = (
            result.metrics.task_count + result.rejected_tasks + result.failed_tasks
        )
        assert ended == len(tasks)
        assert simulation.running_tasks == 0
        # No task ends twice: completions in the trace are unique.
        completed_ids = [
            event["task_id"]
            for event in of_kind(simulation.trace, "task_completed")
        ]
        assert len(completed_ids) == len(set(completed_ids)) == result.metrics.task_count

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(timeline=timelines(), rows=workloads, requeue=requeue_flags)
    def test_core_counts_stay_in_range(self, timeline, rows, requeue):
        platform, simulation, tasks, result = _run(timeline, rows, requeue)
        for node in platform.nodes:
            assert 0 <= node.busy_cores <= node.spec.cores

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(timeline=timelines(), rows=workloads, requeue=requeue_flags)
    def test_energy_segments_partition_the_run(self, timeline, rows, requeue):
        platform, simulation, tasks, result = _run(timeline, rows, requeue)
        end = simulation.engine.now
        log = simulation.accountant.log
        for node in platform.nodes:
            segments = log.segments(node.name)
            if not segments:
                continue
            assert segments[0].start == 0.0
            for before, after in zip(segments, segments[1:]):
                assert before.end == after.start  # no gap, no overlap
            assert segments[-1].end == end
            assert all(segment.watts >= 0.0 for segment in segments)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(timeline=timelines(), rows=workloads, requeue=requeue_flags)
    def test_runs_are_deterministic(self, timeline, rows, requeue):
        _, _, _, first = _run(timeline, rows, requeue)
        _, _, _, second = _run(timeline, rows, requeue)
        assert first.metrics.task_count == second.metrics.task_count
        assert first.metrics.total_energy == second.metrics.total_energy
        assert first.rejected_tasks == second.rejected_tasks
        assert first.failed_tasks == second.failed_tasks
