"""Tests for the middleware simulation driver."""

import hashlib

import pytest

from repro.core.policies import GreenPerfPolicy, PerformancePolicy, PowerPolicy, policy_by_name
from repro.infrastructure.node import Node
from repro.infrastructure.platform import Cluster, Platform, grid5000_placement_platform
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.hierarchy import build_hierarchy
from repro.middleware.plugin_scheduler import FirstComeFirstServedScheduler
from repro.simulation.task import Task, TaskState
from repro.simulation.trace import ExecutionTrace
from repro.workload.generator import BurstThenContinuousWorkload
from tests.conftest import executions, make_spec, run_beside_meter
from tests.wattmeter import analytic_energy


def make_simulation(policy=None, nodes_per_cluster=1, **kwargs):
    platform = grid5000_placement_platform(nodes_per_cluster=nodes_per_cluster)
    master, seds = build_hierarchy(platform, scheduler=policy or PowerPolicy())
    return MiddlewareSimulation(platform, master, seds, **kwargs)


class TestSingleTask:
    def test_single_task_completes(self):
        simulation = make_simulation()
        task = Task(flop=2.3e9, arrival_time=0.0)
        simulation.submit_workload([task])
        result = simulation.run()
        assert result.metrics.task_count == 1
        assert task.state is TaskState.COMPLETED
        assert result.rejected_tasks == 0

    def test_power_policy_places_single_task_on_taurus(self):
        simulation = make_simulation(PowerPolicy())
        simulation.submit_workload([Task(flop=2.3e9)])
        result = simulation.run()
        assert result.metrics.tasks_per_cluster == {"taurus": 1}

    def test_performance_policy_places_single_task_on_orion(self):
        simulation = make_simulation(PerformancePolicy())
        simulation.submit_workload([Task(flop=2.3e9)])
        result = simulation.run()
        assert result.metrics.tasks_per_cluster == {"orion": 1}

    def test_task_duration_matches_node_speed(self):
        simulation = make_simulation(PowerPolicy())
        flop = 4.6e9
        simulation.submit_workload([Task(flop=flop)])
        simulation.run()
        execution = executions(simulation.metrics)[0]
        taurus_speed = simulation.platform.node("taurus-0").spec.flops_per_core
        assert execution.duration == pytest.approx(flop / taurus_speed)

    def test_unknown_service_is_rejected(self):
        simulation = make_simulation()
        simulation.submit_workload([Task(service="unsupported")])
        result = simulation.run()
        assert result.rejected_tasks == 1
        assert result.metrics.task_count == 0


class TestWorkloadExecution:
    def test_all_tasks_complete(self):
        simulation = make_simulation()
        workload = BurstThenContinuousWorkload(
            total_tasks=30, burst_size=10, flop_per_task=2.3e9
        )
        simulation.submit_workload(workload.generate())
        result = simulation.run()
        assert result.metrics.task_count == 30
        assert simulation.running_tasks == 0

    def test_node_core_limit_respected(self):
        """A node never runs more concurrent tasks than it has cores."""
        simulation = make_simulation()
        trace = simulation.trace
        workload = BurstThenContinuousWorkload(
            total_tasks=60, burst_size=60, flop_per_task=2.3e9
        )
        simulation.submit_workload(workload.generate())
        simulation.run()

        running = {}
        max_running = {}
        for event in trace:
            if event.kind == ExecutionTrace.TASK_STARTED:
                node = event["node"]
                running[node] = running.get(node, 0) + 1
                max_running[node] = max(max_running.get(node, 0), running[node])
            elif event.kind == ExecutionTrace.TASK_COMPLETED:
                node = event["node"]
                running[node] -= 1
        for node_name, peak in max_running.items():
            cores = simulation.platform.node(node_name).spec.cores
            assert peak <= cores

    def test_makespan_covers_submission_span(self):
        simulation = make_simulation()
        workload = BurstThenContinuousWorkload(
            total_tasks=20, burst_size=5, continuous_rate=2.0, flop_per_task=2.3e9
        )
        tasks = workload.generate()
        simulation.submit_workload(tasks)
        result = simulation.run()
        submission_span = tasks[-1].arrival_time - tasks[0].arrival_time
        assert result.metrics.makespan >= submission_span

    def test_energy_accounted_by_wattmeter(self):
        simulation = make_simulation(sample_period=1.0)
        simulation.submit_workload([Task(flop=2.3e10)])
        result = simulation.run()
        # Idle floor of the 3-node platform dominates; energy must be at
        # least idle power x makespan and positive per cluster.
        assert result.total_energy > 0.0
        assert set(result.energy_by_cluster) == {"orion", "taurus", "sagittaire"}
        assert set(result.energy_by_node) == {
            node.name for node in simulation.platform.nodes
        }

    def test_energy_figures_match_polling_and_analytic(self):
        """Segments reproduce the polling figures; the analytic integral is close."""
        tasks = [Task(flop=2.3e10), Task(flop=1.15e10, arrival_time=3.0)]
        simulation = make_simulation()
        simulation.submit_workload(list(tasks))
        quantized, polled_log = run_beside_meter(simulation)
        assert quantized.total_energy == pytest.approx(
            polled_log.total_energy, rel=1e-12
        )
        assert dict(quantized.energy_by_node) == pytest.approx(
            dict(polled_log.energy_by_node()), rel=1e-12
        )
        # Analytic integration drops the sampling quantisation; on this
        # short two-task run the two renderings differ by at most a few
        # platform-peak-seconds (one per transition, plus the t=0 instant).
        peak = sum(n.spec.peak_power for n in simulation.platform.nodes)
        exact = analytic_energy(simulation.energy_log)
        assert abs(exact - quantized.total_energy) <= peak * 6

    def test_invalid_trace_level_rejected(self):
        with pytest.raises(ValueError, match="trace_level"):
            make_simulation(trace_level="sometimes")

    def test_trace_level_off_skips_recording(self):
        simulation = make_simulation(trace_level="off")
        simulation.submit_workload([Task(flop=2.3e9)])
        result = simulation.run()
        assert len(simulation.trace) == 0
        assert result.metrics.task_count == 1
        assert result.total_energy > 0.0

    def test_completion_energy_details_are_pinned(self):
        """Each completion's ``energy``: its core's share of the node draw at start x duration.

        The digest of every ``(node, energy.hex())``, in completion order,
        pins 120 completions of a queued workload (26 distinct values: the
        share moves with the node's busy cores) bit for bit.
        """
        simulation = make_simulation(GreenPerfPolicy(), nodes_per_cluster=2)
        simulation.submit_workload(
            BurstThenContinuousWorkload(
                total_tasks=120, burst_size=60, continuous_rate=0.5, flop_per_task=2e11
            ).generate()
        )
        result = simulation.run()
        energies = [
            (event["node"], event["energy"].hex())
            for event in result.trace
            if event.kind == ExecutionTrace.TASK_COMPLETED
        ]
        assert len(energies) == 120
        assert len({energy for _, energy in energies}) == 26
        assert hashlib.sha256(repr(energies).encode()).hexdigest() == (
            "f36ab12349ca2549bbc08a34bb5cbd60b654e313fb86c4b7d469f0ac6e0a1bc8"
        )

    def test_events_processed_reported(self):
        simulation = make_simulation()
        simulation.submit_workload([Task(flop=2.3e9), Task(flop=2.3e9)])
        result = simulation.run()
        # One arrival + one completion per task.
        assert result.events_processed == 4

    def test_close_detaches_accountant_from_a_reused_platform(self):
        platform = grid5000_placement_platform(nodes_per_cluster=1)
        master, seds = build_hierarchy(platform, scheduler=PowerPolicy())
        first = MiddlewareSimulation(platform, master, seds)
        first.submit_workload([Task(flop=2.3e9)])
        first_result = first.run()
        first.close()
        first.close()  # idempotent
        frozen_energy = first.energy_log.total_energy
        assert frozen_energy == first_result.total_energy

        second = MiddlewareSimulation(platform, master, seds)
        second.submit_workload([Task(flop=2.3e9, arrival_time=1.0)])
        second.run()
        # The second run's transitions must not leak into the closed log.
        assert first.energy_log.total_energy == frozen_energy

    def test_trace_records_full_lifecycle(self):
        simulation = make_simulation()
        simulation.submit_workload([Task(flop=2.3e9)])
        simulation.run()
        kinds = [event.kind for event in simulation.trace]
        assert ExecutionTrace.TASK_SUBMITTED in kinds
        assert ExecutionTrace.TASK_SCHEDULED in kinds
        assert ExecutionTrace.TASK_STARTED in kinds
        assert ExecutionTrace.TASK_COMPLETED in kinds

    def test_dynamic_power_estimates_recorded(self):
        simulation = make_simulation()
        simulation.submit_workload([Task(flop=2.3e9), Task(flop=2.3e9, arrival_time=5.0)])
        simulation.run()
        taurus_sed = simulation.seds["taurus-0"]
        assert taurus_sed.observed_request_count >= 1
        assert taurus_sed.dynamic_mean_power() > 0.0

    def test_inject_task_runs_immediately(self):
        simulation = make_simulation()
        simulation.inject_task(Task(flop=2.3e9))
        result = simulation.run()
        assert result.metrics.task_count == 1

    def test_policy_name_recorded_in_metrics(self):
        simulation = make_simulation(PowerPolicy())
        assert simulation.metrics.policy == "POWER"
        simulation = make_simulation(policy_name="custom")
        assert simulation.metrics.policy == "custom"


class TestQueueOverflow:
    def test_tasks_queue_when_elected_node_is_full(self):
        """With a single 2-core Sagittaire-only burst the queue must drain in order."""
        platform = grid5000_placement_platform(nodes_per_cluster=1)
        master, seds = build_hierarchy(platform, scheduler=PowerPolicy())
        simulation = MiddlewareSimulation(platform, master, seds)
        # Saturate the platform with more tasks than total cores.
        total_cores = platform.total_cores
        workload = BurstThenContinuousWorkload(
            total_tasks=total_cores * 2, burst_size=total_cores * 2, flop_per_task=2.3e9
        )
        simulation.submit_workload(workload.generate())
        result = simulation.run()
        assert result.metrics.task_count == total_cores * 2
        assert result.metrics.mean_queue_delay > 0.0


class TestZeroPowerNode:
    @pytest.mark.parametrize("policy", ["POWER", "RANDOM", "FCFS", "GREEN_SCORE"])
    def test_a_node_that_draws_no_power_serves_its_tasks(self, policy):
        """``NodeSpec`` allows ``peak_power=0``: each completion records 0 W."""
        spec = make_spec(cores=2, idle_power=0.0, peak_power=0.0, boot_power=0.0)
        platform = Platform([Cluster(spec.cluster, [Node(spec)])])
        scheduler = (
            FirstComeFirstServedScheduler() if policy == "FCFS" else policy_by_name(policy)
        )
        master, seds = build_hierarchy(platform, scheduler=scheduler)
        simulation = MiddlewareSimulation(platform, master, seds)
        simulation.submit_workload([Task(flop=2.0e9, arrival_time=float(i)) for i in range(3)])
        result = simulation.run()
        assert result.metrics.task_count == 3
        assert seds[spec.name].observed_request_count == 3
        assert seds[spec.name].dynamic_mean_power() == 0.0
