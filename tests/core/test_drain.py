"""Differential tests for the provisioning drain.

:meth:`ProvisioningPlanner.drain_deprovisioned_nodes` visits only the
de-provisioned nodes it has not yet seen OFF.  :func:`whole_platform_drain`
is the walk it replaced — every node of the platform, skipping the
candidates — kept here as the oracle: under any stream of resizes, boot
completions, crashes, repairs and task starts/completions, both must
power off the same nodes, in the same order, with the same counts.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import GreenPerfPolicy
from repro.core.provisioning import ProvisioningConfig, ProvisioningPlanner
from repro.infrastructure.node import NodeState
from repro.infrastructure.platform import grid5000_placement_platform
from repro.infrastructure.thermal import ThermalEnvironment
from repro.lab import LabSession, PlatformSource, PolicySource, ProvisioningSource, WorkloadSource
from repro.middleware.hierarchy import build_hierarchy
from repro.scenario.generators import exponential_failures, periodic_tariffs
from repro.simulation.engine import SimulationEngine
from repro.simulation.trace import ExecutionTrace
from repro.workload.generator import BurstThenContinuousWorkload
from tests.conftest import of_kind

NODES_PER_CLUSTER = 3


def whole_platform_drain(planner: ProvisioningPlanner, now: float) -> int:
    """Power off every idle, ON node that is not a candidate, in platform order."""
    if not planner.config.manage_power:
        return 0
    turned_off = 0
    candidates = planner.candidate_nodes
    for node in planner.platform.nodes:
        if node.name in candidates:
            continue
        if node.state is NodeState.ON and node.busy_cores == 0:
            node.power_off()
            turned_off += 1
            if planner.trace is not None:
                planner.trace.record(now, ExecutionTrace.NODE_POWERED_OFF, node=node.name)
    return turned_off


class SettableTariff:
    """An electricity schedule whose cost the test moves by hand."""

    def __init__(self, cost: float) -> None:
        self.cost = cost

    def cost_at(self, time: float) -> float:
        return self.cost


class Twin:
    """One planner over its own platform, engine and trace."""

    def __init__(self, drain, initial_cost: float) -> None:
        platform = grid5000_placement_platform(nodes_per_cluster=NODES_PER_CLUSTER)
        master, seds = build_hierarchy(platform, scheduler=GreenPerfPolicy())
        self.tariff = SettableTariff(initial_cost)
        self.engine = SimulationEngine()
        self.trace = ExecutionTrace()
        self.planner = ProvisioningPlanner(
            platform,
            master,
            self.tariff,
            ThermalEnvironment(),
            seds=seds,
            engine=self.engine,
            trace=self.trace,
            config=ProvisioningConfig(manage_power=True, ramp_up_step=3, ramp_down_step=4),
        )
        self.drain = drain
        #: Every node that went OFF, in the order it did.
        self.powered_off: list[str] = []
        for node in platform.nodes:
            node.add_power_listener(self._on_power_change)

    def _on_power_change(self, node) -> None:
        if node.state is NodeState.OFF:
            self.powered_off.append(node.name)

    def apply(self, operation: str, argument) -> int | None:
        """Apply one operation; a drain returns its count."""
        now = self.engine.now
        if operation == "check":
            self.tariff.cost = argument
            self.planner.check(now)
            return None
        if operation == "drain":
            return self.drain(self.planner, now)
        if operation == "boot":
            self.engine.step()  # the next boot completion, if any is pending
            return None
        node = self.planner.platform.nodes[argument]
        if operation == "start" and node.free_cores:
            node.acquire_core()
        elif operation == "finish" and node.busy_cores:
            node.release_core()
        elif operation == "fail" and node.state is not NodeState.FAILED:
            node.fail(now=now)
        elif operation == "repair" and node.state is NodeState.FAILED:
            node.repair()
        return None

    def snapshot(self):
        return [
            (node.name, node.state, node.busy_cores) for node in self.planner.platform.nodes
        ]


NODE_COUNT = 3 * NODES_PER_CLUSTER
COSTS = st.sampled_from([1.0, 0.7, 0.3])

operations_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("check"), COSTS),
        st.tuples(st.just("drain"), st.none()),
        st.tuples(st.just("boot"), st.none()),
        st.tuples(
            st.sampled_from(["start", "finish", "fail", "repair"]),
            st.integers(min_value=0, max_value=NODE_COUNT - 1),
        ),
    ),
    max_size=80,
)


class TestDrainMatchesWholePlatformWalk:
    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(initial_cost=COSTS, operations=operations_strategy)
    def test_same_nodes_off_in_the_same_order(self, initial_cost, operations):
        planner_side = Twin(ProvisioningPlanner.drain_deprovisioned_nodes, initial_cost)
        oracle_side = Twin(whole_platform_drain, initial_cost)
        for operation, argument in [*operations, ("drain", None)]:
            assert planner_side.apply(operation, argument) == oracle_side.apply(
                operation, argument
            )
            assert planner_side.snapshot() == oracle_side.snapshot()
        assert planner_side.powered_off == oracle_side.powered_off
        assert list(planner_side.trace) == list(oracle_side.trace)

    def test_a_node_removed_while_busy_is_drained_once_idle(self):
        twin = Twin(ProvisioningPlanner.drain_deprovisioned_nodes, 0.3)
        planner = twin.planner
        busy = planner.platform.node(sorted(planner.candidate_nodes)[0])
        busy.acquire_core()
        while busy.name in planner.candidate_nodes:
            twin.apply("check", 1.0)
        assert busy.state is NodeState.ON
        assert twin.apply("drain", None) == 0
        busy.release_core()
        assert twin.apply("drain", None) == 1
        assert busy.state is NodeState.OFF
        assert twin.apply("drain", None) == 0


def _storm_session():
    """A provisioned two-hour run under a crash storm and alternating tariffs."""
    horizon = 7200.0
    platform = PlatformSource.table1(4)
    names = [node.name for node in platform.build_platform().nodes]
    timeline = exponential_failures(
        names[::2], mtbf=horizon / 4, mttr=horizon / 50, horizon=horizon, seed=5
    ).extended(
        periodic_tariffs(period=horizon / 6, costs=(1.0, 0.3, 0.7), horizon=horizon).events
    )
    return LabSession(
        platform=platform,
        workload=WorkloadSource.from_generator(
            BurstThenContinuousWorkload(
                total_tasks=200, burst_size=20, continuous_rate=0.05, flop_per_task=5e11
            )
        ),
        policy=PolicySource("GREENPERF"),
        provisioning=ProvisioningSource(check_period=300.0),
        timeline=timeline,
        horizon=horizon,
        trace_level="full",
    )


def test_a_full_trace_session_records_the_same_power_offs(monkeypatch):
    """End to end: the same ``NODE_POWERED_OFF`` records and results as the walk."""
    drained = _storm_session().run()
    monkeypatch.setattr(ProvisioningPlanner, "drain_deprovisioned_nodes", whole_platform_drain)
    walked = _storm_session().run()

    def power_offs(result):
        return [
            (event.time, event["node"])
            for event in of_kind(result.simulation.trace, ExecutionTrace.NODE_POWERED_OFF)
        ]

    assert power_offs(drained)  # the storm does drain nodes
    assert power_offs(drained) == power_offs(walked)
    assert drained.metrics == walked.metrics
    assert drained.power_series == walked.power_series
