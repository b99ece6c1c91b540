"""Tests for timeline wiring: schedules, fault injection, driver semantics."""

from repro.infrastructure.node import NodeState
from repro.infrastructure.platform import grid5000_placement_platform
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.hierarchy import build_hierarchy
from repro.scenario.apply import build_schedules, install_timeline
from repro.scenario.events import (
    EventTimeline,
    NodeFailure,
    NodeRecovery,
    TariffChange,
    ThermalExcursion,
)
from repro.simulation.task import Task, TaskState
from repro.simulation.trace import ExecutionTrace
from tests.wattmeter import analytic_energy
from tests.conftest import of_kind


def make_simulation(*, nodes_per_cluster: int = 1):
    platform = grid5000_placement_platform(nodes_per_cluster=nodes_per_cluster)
    master, seds = build_hierarchy(platform)
    simulation = MiddlewareSimulation(platform, master, seds)
    return platform, simulation


class TestBuildSchedules:
    def test_tariffs_and_thermal_events_split(self):
        electricity, thermal = build_schedules(
            EventTimeline([
                TariffChange(time=100.0, cost=0.8),
                TariffChange(time=200.0, cost=0.5),
                ThermalExcursion(time=300.0, temperature=30.0),
            ]),
            base_temperature=20.0,
        )
        assert electricity.cost_at(50.0) == 1.0
        assert electricity.cost_at(150.0) == 0.8
        assert electricity.cost_at(250.0) == 0.5
        assert thermal.temperature(250.0) == 20.0
        assert thermal.temperature(350.0) == 30.0

    def test_fault_events_do_not_pollute_schedules(self):
        electricity, thermal = build_schedules(
            EventTimeline([NodeFailure(time=10.0, node="x")])
        )
        assert [electricity.cost_at(t) for t in (0.0, 10.0, 1e9)] == [1.0, 1.0, 1.0]
        assert thermal.events == ()


class TestUnknownNodeValidation:
    def test_unknown_node_rejected_at_assembly_time(self):
        _, simulation = make_simulation()
        timeline = EventTimeline([NodeFailure(time=60.0, node="orion-99")])
        try:
            install_timeline(simulation, timeline)
        except ValueError as error:
            assert "orion-99" in str(error)
            assert "available" in str(error)
        else:
            raise AssertionError("unknown node was silently accepted")
        # Nothing was scheduled: the engine runs to completion untouched.
        simulation.run()

    def test_known_nodes_install_cleanly(self):
        _, simulation = make_simulation()
        timeline = EventTimeline(
            [
                NodeFailure(time=60.0, node="orion-0"),
                NodeRecovery(time=120.0, node="orion-0"),
            ]
        )
        handles = install_timeline(simulation, timeline)
        assert len(handles) == 2


class TestNodeFailureInDriver:
    def test_failed_node_stops_drawing_power(self):
        platform, simulation = make_simulation()
        install_timeline(
            simulation, EventTimeline([NodeFailure(time=100.0, node="orion-0")])
        )
        simulation.run(until=200.0)
        node = platform.node("orion-0")
        assert node.state is NodeState.FAILED
        assert node.current_power() == 0.0
        assert not node.is_available

    def test_energy_segments_close_at_the_crash_instant(self):
        platform, simulation = make_simulation()
        install_timeline(
            simulation, EventTimeline([NodeFailure(time=100.0, node="orion-0")])
        )
        simulation.run(until=250.0)
        segments = simulation.accountant.log.segments("orion-0")
        # Segments partition [0, end): idle power up to the crash, zero after.
        assert segments[0].start == 0.0
        assert all(a.end == b.start for a, b in zip(segments, segments[1:]))
        assert segments[-1].end == 250.0
        crash_boundary = [s for s in segments if s.end == 100.0]
        assert crash_boundary and crash_boundary[0].watts > 0.0
        after = [s for s in segments if s.start >= 100.0]
        assert after and all(s.watts == 0.0 for s in after)

    def test_inflight_tasks_requeue_to_surviving_nodes(self):
        platform, simulation = make_simulation()
        # Long tasks: still running when the crash hits at t=50.
        tasks = [Task(flop=1e12, arrival_time=0.0) for _ in range(6)]
        simulation.submit_workload(tasks)
        install_timeline(
            simulation, EventTimeline([NodeFailure(time=50.0, node="orion-0")])
        )
        result = simulation.run()
        assert result.metrics.task_count == 6  # every task completed elsewhere
        assert result.failed_tasks == 0
        requeued = of_kind(simulation.trace, ExecutionTrace.TASK_REQUEUED)
        completions = of_kind(simulation.trace, ExecutionTrace.TASK_COMPLETED)
        assert {event["failed_node"] for event in requeued} == {"orion-0"}
        assert all(event["node"] != "orion-0" for event in completions)

    def test_fail_semantics_lose_displaced_tasks(self):
        platform, simulation = make_simulation()
        tasks = [Task(flop=1e12, arrival_time=0.0) for _ in range(6)]
        simulation.submit_workload(tasks)
        install_timeline(
            simulation,
            EventTimeline([NodeFailure(time=50.0, node="orion-0")]),
            requeue=False,
        )
        result = simulation.run()
        displaced = result.failed_tasks
        assert displaced > 0
        assert result.metrics.task_count == 6 - displaced
        failed_states = [task for task in tasks if task.state is TaskState.FAILED]
        assert len(failed_states) == displaced

    def test_task_conservation_across_crash_and_recovery(self):
        platform, simulation = make_simulation()
        tasks = [Task(flop=5e11, arrival_time=float(i)) for i in range(20)]
        simulation.submit_workload(tasks)
        install_timeline(
            simulation,
            EventTimeline([
                NodeFailure(time=30.0, node="orion-0"),
                NodeRecovery(time=200.0, node="orion-0"),
            ]),
        )
        result = simulation.run()
        assert (
            result.metrics.task_count + result.rejected_tasks + result.failed_tasks
            == len(tasks)
        )
        assert simulation.running_tasks == 0

    def test_recovered_node_serves_again(self):
        platform, simulation = make_simulation()
        install_timeline(
            simulation,
            EventTimeline([
                NodeFailure(time=10.0, node="orion-0"),
                NodeRecovery(time=20.0, node="orion-0"),
            ]),
        )
        # Submit work after the recovery point; the repaired node must be
        # electable again.
        engine = simulation.engine
        engine.schedule(
            30.0,
            lambda: simulation.inject_task(Task(flop=1e10, arrival_time=30.0)),
        )
        result = simulation.run()
        node = platform.node("orion-0")
        assert node.state is NodeState.ON
        assert result.metrics.task_count == 1

    def test_total_loss_rejects_requeued_tasks(self):
        # One cluster platform: crash every node -> nowhere to requeue.
        platform, simulation = make_simulation()
        tasks = [Task(flop=1e12, arrival_time=0.0) for _ in range(3)]
        simulation.submit_workload(tasks)
        install_timeline(
            simulation,
            EventTimeline([
                NodeFailure(time=10.0, node=node.name) for node in platform.nodes
            ]),
        )
        result = simulation.run()
        assert result.metrics.task_count == 0
        assert result.rejected_tasks == 3

    def test_double_fail_is_noop_and_recover_is_idempotent(self):
        platform, simulation = make_simulation()
        simulation.engine.run(until=1.0)
        assert simulation.fail_node("orion-0") == 0 or True  # first crash
        assert simulation.fail_node("orion-0") == 0  # second is a no-op
        simulation.recover_node("orion-0")
        simulation.recover_node("orion-0")  # idempotent
        assert platform.node("orion-0").state is NodeState.ON

    def test_trace_records_node_lifecycle(self):
        platform, simulation = make_simulation()
        install_timeline(
            simulation,
            EventTimeline([
                NodeFailure(time=10.0, node="orion-0"),
                NodeRecovery(time=20.0, node="orion-0"),
            ]),
        )
        simulation.run(until=30.0)
        failed = of_kind(simulation.trace, ExecutionTrace.NODE_FAILED)
        recovered = of_kind(simulation.trace, ExecutionTrace.NODE_RECOVERED)
        assert [event.time for event in failed] == [10.0]
        assert [event.time for event in recovered] == [20.0]
        assert failed[0]["node"] == "orion-0"


class TestQuantizedAnalyticAgreement:
    def test_crash_energy_brackets_quantized(self):
        """Analytic energy stays within one tick of quantized around a crash."""
        platform, simulation = make_simulation()
        simulation.submit_workload(
            [Task(flop=5e11, arrival_time=float(i)) for i in range(8)]
        )
        install_timeline(
            simulation,
            EventTimeline([
                NodeFailure(time=33.3, node="orion-0"),
                NodeRecovery(time=66.6, node="orion-0"),
            ]),
        )
        quantized = simulation.run().metrics.total_energy
        exact = analytic_energy(simulation.energy_log)
        peak = max(node.spec.peak_power for node in platform.nodes)
        # One sample period of the largest node bounds the quantization gap
        # per transition; a handful of transitions happen here.
        assert abs(quantized - exact) <= 10 * peak
