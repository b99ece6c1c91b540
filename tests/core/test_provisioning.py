"""Tests for the adaptive provisioning planner."""

import math

import pytest

from repro.core.policies import GreenPerfPolicy
from repro.core.provisioning import ProvisioningConfig, ProvisioningPlanner
from repro.infrastructure.electricity import ElectricityCostSchedule, TariffPeriod
from repro.infrastructure.node import NodeState
from repro.infrastructure.platform import grid5000_placement_platform
from repro.infrastructure.thermal import (
    TEMPERATURE_THRESHOLD,
    ThermalEnvironment,
    ThermalEvent,
)
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.hierarchy import build_hierarchy
from repro.simulation.engine import SimulationEngine
from repro.simulation.task import Task
from repro.simulation.trace import ExecutionTrace
from tests.conftest import last_of_kind, of_kind


def make_planner(
    *,
    cost_periods=(),
    initial_cost=1.0,
    thermal_events=(),
    config=None,
    nodes_per_cluster=4,
    with_engine=False,
    trace=None,
):
    platform = grid5000_placement_platform(nodes_per_cluster=nodes_per_cluster)
    master, seds = build_hierarchy(platform, scheduler=GreenPerfPolicy())
    electricity = ElectricityCostSchedule()
    for period in (TariffPeriod(start=0.0, cost=initial_cost), *cost_periods):
        electricity.add_period(period)
    thermal = ThermalEnvironment()
    for event in thermal_events:
        thermal.schedule_event(event)
    engine = SimulationEngine() if with_engine else None
    planner = ProvisioningPlanner(
        platform,
        master,
        electricity,
        thermal,
        seds=seds,
        engine=engine,
        trace=trace,
        config=config or ProvisioningConfig(manage_power=False),
    )
    return planner, platform, master, seds


class TestInitialisation:
    def test_initial_candidates_follow_rules(self):
        planner, *_ = make_planner()
        # cost 1.0 -> 40 % of 12 nodes -> 4 candidates.
        assert len(planner.candidate_nodes) == 4

    def test_initial_candidates_prefer_taurus(self):
        planner, *_ = make_planner()
        assert all(name.startswith("taurus") for name in planner.candidate_nodes)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProvisioningConfig(check_period=0.0)
        with pytest.raises(ValueError):
            ProvisioningConfig(ramp_up_step=0)
        with pytest.raises(ValueError):
            ProvisioningConfig(lookahead=-1.0)


class TestCandidateFilter:
    def test_filter_restricts_elections_to_candidates(self):
        planner, platform, master, seds = make_planner()
        planner.install()
        simulation = MiddlewareSimulation(platform, master, seds)
        simulation.inject_task(Task(flop=2.3e9))
        simulation.run()
        scheduled = of_kind(simulation.trace, ExecutionTrace.TASK_SCHEDULED)
        assert scheduled[0]["node"] in planner.candidate_nodes

    def test_filter_falls_back_when_no_candidate_can_serve(self):
        planner, platform, master, seds = make_planner()
        planner.install()
        master.set_candidate_filter(frozenset())
        simulation = MiddlewareSimulation(platform, master, seds)
        simulation.inject_task(Task(flop=2.3e9))
        result = simulation.run()
        # With an empty candidate pool the planner lets the request through
        # rather than rejecting it.
        assert result.metrics.task_count == 1

    def test_every_change_installs_a_fresh_frozen_set(self):
        planner, _, master, _ = make_planner(
            cost_periods=[TariffPeriod(start=100.0, cost=0.8)]
        )
        planner.install()
        before = master.candidate_filter
        assert isinstance(before, frozenset) and before is planner.candidate_nodes
        planner.check(100.0)
        # The set the Master Agent held never moves; the new one replaces it.
        assert len(before) == 4
        assert master.candidate_filter is planner.candidate_nodes
        assert len(master.candidate_filter) == 6


class TestChecksAndRamping:
    def test_ramp_up_towards_cheaper_tariff(self):
        trace = ExecutionTrace()
        planner, *_ = make_planner(
            cost_periods=[TariffPeriod(start=3600.0, cost=0.5)], trace=trace
        )
        # Before the look-ahead window reaches the event nothing changes.
        entry = planner.check(0.0)
        assert entry.candidates == 4
        # Within the look-ahead (t+20min of a t=60min event): ramp by 2.
        entry = planner.check(2400.0)
        assert last_of_kind(trace, ExecutionTrace.STATUS_CHECK)["target"] == 12
        assert entry.candidates == 6
        entry = planner.check(3000.0)
        assert entry.candidates == 8

    def test_ramp_down_on_heat_peak(self):
        trace = ExecutionTrace()
        planner, *_ = make_planner(
            initial_cost=0.5,
            thermal_events=[ThermalEvent(time=1000.0, temperature=30.0)],
            trace=trace,
        )
        planner.check(0.0)
        assert len(planner.candidate_nodes) == 12
        entry = planner.check(1000.0)
        # Overheating rule: target 2, ramped down by at most 4 per check.
        assert last_of_kind(trace, ExecutionTrace.STATUS_CHECK)["target"] == 2
        assert entry.candidates == 8
        planner.check(1600.0)
        planner.check(2200.0)
        assert len(planner.candidate_nodes) == 2

    def test_ramp_steps_respect_configuration(self):
        config = ProvisioningConfig(ramp_up_step=5, ramp_down_step=10, manage_power=False)
        planner, *_ = make_planner(initial_cost=0.5, config=config)
        # Initial pool: the rules are evaluated at time 0 with cost 0.5, so
        # the initial pool is 12.
        start = len(planner.candidate_nodes)
        assert start == 12
        planner.thermal.schedule_event(ThermalEvent(time=10.0, temperature=40.0))
        entry = planner.check(10.0)
        assert entry.candidates == max(2, start - 10)

    def test_candidates_added_in_greenperf_order(self):
        planner, *_ = make_planner(
            cost_periods=[TariffPeriod(start=100.0, cost=0.8)]
        )
        planner.check(100.0)
        # 4 -> 6: the two added nodes must still be the most efficient
        # non-candidates, i.e. orion before sagittaire.
        added = {name.split("-")[0] for name in planner.candidate_nodes}
        assert added == {"taurus", "orion"}

    def test_planning_entries_accumulate(self):
        planner, *_ = make_planner()
        planner.check(0.0)
        planner.check(600.0)
        entries = planner.planning_entries
        assert len(entries) == 2
        assert entries[0].candidates == planner.candidate_history()[0][1]
        assert entries[1].timestamp == 600.0

    def test_candidate_history_series(self):
        planner, *_ = make_planner()
        planner.check(0.0)
        planner.check(600.0)
        history = planner.candidate_history()
        assert [time for time, _ in history] == [0.0, 600.0]

    def test_trace_records_status_checks(self):
        trace = ExecutionTrace()
        planner, *_ = make_planner(trace=trace)
        planner.check(0.0)
        assert len(of_kind(trace, ExecutionTrace.STATUS_CHECK)) == 1


class TestHeatAgainstTheLookAhead:
    """Heat now keeps the planner from provisioning ahead for a cheap tariff."""

    @pytest.mark.parametrize(
        "temperature, rule, target",
        [
            (TEMPERATURE_THRESHOLD, "off-peak-2", 12),
            (math.nextafter(TEMPERATURE_THRESHOLD, math.inf), "overheating", 2),
        ],
    )
    def test_overheating_wins_over_a_cheap_tariff_ahead(self, temperature, rule, target):
        trace = ExecutionTrace()
        planner, *_ = make_planner(
            cost_periods=[TariffPeriod(start=600.0, cost=0.5)],
            thermal_events=[ThermalEvent(time=0.0, temperature=temperature)],
            trace=trace,
        )
        planner.check(0.0)
        record = last_of_kind(trace, ExecutionTrace.STATUS_CHECK)
        assert (record["rule"], record["target"]) == (rule, target)


class TestPowerManagement:
    def test_deprovisioned_idle_nodes_power_off(self):
        config = ProvisioningConfig(manage_power=True)
        planner, platform, *_ = make_planner(config=config)
        turned_off = planner.drain_deprovisioned_nodes(0.0)
        assert turned_off == len(platform) - len(planner.candidate_nodes)
        off_nodes = [n for n in platform.nodes if n.state is NodeState.OFF]
        assert len(off_nodes) == turned_off

    def test_busy_nodes_are_not_powered_off(self):
        config = ProvisioningConfig(manage_power=True)
        planner, platform, *_ = make_planner(config=config)
        # Make a non-candidate node busy: it must survive the drain.
        busy = next(
            node for node in platform.nodes if node.name not in planner.candidate_nodes
        )
        busy.acquire_core()
        planner.drain_deprovisioned_nodes(0.0)
        assert busy.state is NodeState.ON

    def test_power_management_is_on_by_default(self):
        assert ProvisioningConfig().manage_power

    def test_power_management_can_be_disabled(self):
        planner, platform, *_ = make_planner()
        assert planner.drain_deprovisioned_nodes(0.0) == 0
        assert all(node.state is NodeState.ON for node in platform.nodes)

    def test_powered_off_node_boots_when_reprovisioned(self):
        config = ProvisioningConfig(manage_power=True)
        planner, platform, *_ = make_planner(
            config=config,
            cost_periods=[TariffPeriod(start=100.0, cost=0.5)],
            with_engine=True,
        )
        planner.drain_deprovisioned_nodes(0.0)
        assert any(node.state is NodeState.OFF for node in platform.nodes)
        planner.engine.run(until=50.0)
        planner.check(100.0)
        # Newly added candidates that were off are now booting.
        booting = [node for node in platform.nodes if node.state is NodeState.BOOTING]
        assert booting
        planner.engine.run()
        assert all(node.state is not NodeState.BOOTING for node in platform.nodes)


class TestStaleBootCompletions:
    def test_crash_during_boot_does_not_let_the_stale_event_finish_a_reboot(self):
        """A boot abandoned by a crash must not be completed by its
        already-scheduled engine event once the node re-boots: the second
        boot has its own, later, promised completion time."""
        config = ProvisioningConfig(manage_power=True)
        planner, platform, *_ = make_planner(config=config, with_engine=True)
        engine = planner.engine
        node = platform.nodes[0]
        node.power_off()
        boot_time = node.spec.boot_time
        assert boot_time > 0

        planner._power_on(node.name, 0.0)  # completion promised at boot_time
        engine.schedule(0.25 * boot_time, lambda: node.fail(now=engine.now))
        engine.schedule(0.50 * boot_time, node.repair)  # mid-boot crash -> OFF
        restart_at = 0.75 * boot_time
        engine.schedule(
            restart_at, lambda: planner._power_on(node.name, restart_at)
        )

        observed = {}
        engine.schedule(
            boot_time + 1e-6, lambda: observed.update(after_stale=node.state)
        )
        engine.run()
        # At the stale event's time the re-boot is still in progress...
        assert observed["after_stale"] is NodeState.BOOTING
        # ...and it completes on its own schedule.
        assert node.state is NodeState.ON
        assert engine.now == pytest.approx(restart_at + boot_time)


class TestPeriodicScheduling:
    def test_start_requires_engine(self):
        planner, *_ = make_planner(with_engine=False)
        with pytest.raises(RuntimeError):
            planner.start()

    def test_periodic_checks_fire_on_engine(self):
        planner, *_ = make_planner(with_engine=True)
        planner.start()
        planner.engine.run(until=1900.0)
        # Checks at t = 0, 600, 1200, 1800.
        assert len(planner.candidate_history()) == 4

    def test_start_installs_candidate_filter(self):
        planner, _, master, _ = make_planner(with_engine=True)
        planner.start()
        assert master.candidate_filter is planner.candidate_nodes
