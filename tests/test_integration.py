"""End-to-end integration tests across the whole stack.

These tests exercise the public API the way the examples and benchmarks
do: build a platform, build the middleware hierarchy, install a green
policy, run a workload, and check cross-module invariants (energy
conservation, work conservation, determinism).
"""

import pytest

from repro.core.policies import GreenSchedulerPolicy, policy_by_name
from repro.core.provisioning import ProvisioningConfig, ProvisioningPlanner
from repro.infrastructure.electricity import ElectricityCostSchedule
from repro.infrastructure.platform import grid5000_placement_platform
from repro.infrastructure.thermal import ThermalEnvironment
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.hierarchy import build_hierarchy
from repro.simulation.trace import ExecutionTrace
from repro.workload.generator import BurstThenContinuousWorkload, PoissonWorkload
from tests.conftest import executions, of_kind
from tests.wattmeter import tick_count


def run_workload(policy_name, tasks, *, nodes_per_cluster=1, sample_period=1.0, seed=0):
    kwargs = {"seed": seed} if policy_name == "RANDOM" else {}
    platform = grid5000_placement_platform(nodes_per_cluster=nodes_per_cluster)
    master, seds = build_hierarchy(platform, scheduler=policy_by_name(policy_name, **kwargs))
    simulation = MiddlewareSimulation(platform, master, seds, sample_period=sample_period)
    simulation.submit_workload(tasks)
    return simulation, simulation.run()


WORKLOAD = BurstThenContinuousWorkload(
    total_tasks=40, burst_size=10, flop_per_task=2.0e10
).generate()


class TestEnergyConservation:
    def test_wattmeter_energy_bounded_by_idle_and_peak(self):
        simulation, result = run_workload("POWER", WORKLOAD)
        platform = simulation.platform
        energy_log = simulation.energy_log
        makespan_samples = sum(
            tick_count(energy_log, node.name) for node in platform.nodes
        ) / len(platform)
        idle_floor = sum(node.spec.idle_power for node in platform.nodes)
        peak_ceiling = sum(node.spec.peak_power for node in platform.nodes)
        total = result.total_energy
        assert total >= idle_floor * (makespan_samples - 1) * 0.9
        assert total <= peak_ceiling * (makespan_samples + 1)

    def test_cluster_energies_sum_to_total(self):
        _, result = run_workload("PERFORMANCE", WORKLOAD)
        assert sum(result.energy_by_cluster.values()) == pytest.approx(
            result.total_energy, rel=1e-9
        )

    def test_node_energies_sum_to_total(self):
        _, result = run_workload("RANDOM", WORKLOAD)
        assert sum(result.energy_by_node.values()) == pytest.approx(
            result.total_energy, rel=1e-9
        )


class TestWorkConservation:
    @pytest.mark.parametrize("policy", ["POWER", "PERFORMANCE", "RANDOM", "GREENPERF"])
    def test_every_submitted_task_completes_exactly_once(self, policy):
        simulation, result = run_workload(policy, WORKLOAD)
        assert result.metrics.task_count == len(WORKLOAD)
        completed_ids = [e.task_id for e in executions(simulation.metrics)]
        assert len(completed_ids) == len(set(completed_ids))

    def test_started_equals_completed(self):
        simulation, _ = run_workload("POWER", WORKLOAD)
        trace = simulation.trace
        assert len(of_kind(trace, ExecutionTrace.TASK_STARTED)) == len(
            of_kind(trace, ExecutionTrace.TASK_COMPLETED)
        )

    def test_scheduled_node_matches_execution_node(self):
        simulation, _ = run_workload("POWER", WORKLOAD)
        scheduled = {
            event["task_id"]: event["node"]
            for event in of_kind(simulation.trace, ExecutionTrace.TASK_SCHEDULED)
        }
        for execution in executions(simulation.metrics):
            assert scheduled[execution.task_id] == execution.node


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["POWER", "PERFORMANCE", "GREENPERF"])
    def test_deterministic_policies_reproduce_exactly(self, policy):
        _, first = run_workload(policy, WORKLOAD)
        _, second = run_workload(policy, WORKLOAD)
        assert first.metrics.makespan == second.metrics.makespan
        assert first.metrics.total_energy == second.metrics.total_energy
        assert first.metrics.tasks_per_node == second.metrics.tasks_per_node

    def test_random_policy_reproducible_with_seed(self):
        _, first = run_workload("RANDOM", WORKLOAD, seed=9)
        _, second = run_workload("RANDOM", WORKLOAD, seed=9)
        assert first.metrics.tasks_per_node == second.metrics.tasks_per_node


class TestGreenSchedulerEndToEnd:
    def test_user_preference_shifts_placement(self):
        """The score-based scheduler reacts to Preference_user end to end."""
        platform_energy = {}
        for preference in (-0.9, 0.9):
            platform = grid5000_placement_platform(nodes_per_cluster=1)
            master, seds = build_hierarchy(
                platform, scheduler=GreenSchedulerPolicy()
            )
            simulation = MiddlewareSimulation(platform, master, seds, sample_period=5.0)
            workload = PoissonWorkload(
                total_tasks=30, rate=0.5, flop_per_task=5.0e10, seed=3,
                user_preference=preference,
            ).generate()
            simulation.submit_workload(workload)
            result = simulation.run()
            counts = result.metrics.tasks_per_cluster
            platform_energy[preference] = counts
        # Energy-seeking users land mostly on Taurus, performance-seeking on Orion.
        assert platform_energy[0.9].get("taurus", 0) > platform_energy[0.9].get("orion", 0)
        assert platform_energy[-0.9].get("orion", 0) > platform_energy[-0.9].get("taurus", 0)


class TestProvisioningIntegration:
    def test_planner_limits_where_work_lands(self):
        platform = grid5000_placement_platform(nodes_per_cluster=2)
        master, seds = build_hierarchy(platform, scheduler=policy_by_name("GREENPERF"))
        simulation = MiddlewareSimulation(platform, master, seds, sample_period=5.0)
        planner = ProvisioningPlanner(
            platform,
            master,
            ElectricityCostSchedule(),
            ThermalEnvironment(),
            seds=seds,
            engine=simulation.engine,
            trace=simulation.trace,
            # Regular tariff: 40 % of the 6 nodes -> 2 candidates.
            config=ProvisioningConfig(manage_power=False),
        )
        planner.install()
        workload = BurstThenContinuousWorkload(
            total_tasks=30, burst_size=5, flop_per_task=2.0e10
        ).generate()
        simulation.submit_workload(workload)
        result = simulation.run()
        used_nodes = set(result.metrics.tasks_per_node)
        assert used_nodes <= planner.candidate_nodes
        assert result.metrics.task_count == 30


class TestScalingSanity:
    def test_full_platform_short_workload(self):
        """The full 12-node Table I platform processes a small workload cleanly."""
        platform = grid5000_placement_platform()
        master, seds = build_hierarchy(platform, scheduler=policy_by_name("POWER"))
        simulation = MiddlewareSimulation(platform, master, seds, sample_period=5.0)
        workload = BurstThenContinuousWorkload(
            total_tasks=platform.total_cores,
            burst_size=platform.total_cores,
            continuous_rate=2.0,
            flop_per_task=1.0e10,
        )
        simulation.submit_workload(workload.generate())
        result = simulation.run()
        assert result.metrics.task_count == platform.total_cores
