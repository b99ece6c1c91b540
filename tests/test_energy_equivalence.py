"""Property tests: segment-based quantized accounting == seed polling wattmeter.

The headline acceptance criterion of the event-driven refactor is that
the segment log reproduces the polling wattmeter's figures
*exactly* — total energy, per-node and per-cluster energy, power traces
and sample counts — on arbitrary platforms and schedules, while doing
O(state-changes) work instead of O(nodes × seconds).  The wattmeter is
the oracle: it is stepped beside one quantized simulation
(:func:`tests.conftest.run_beside_meter`) and its log compared with the
accountant's.

The randomized platforms below use integer idle/peak power, power-of-two
core counts and power-of-two sample periods, which makes every
instantaneous power value and per-instant energy term a dyadic rational:
both accounting paths then compute the same sums without rounding, so the
comparisons are ``==``, not approx.  (For non-dyadic periods the figures
agree to float rounding; the experiments use 1 s, 5 s and 10 s, all
exactly representable.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import policy_by_name
from repro.infrastructure.cluster import Cluster
from repro.infrastructure.node import Node, NodeSpec
from repro.infrastructure.platform import Platform, grid5000_placement_platform
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.hierarchy import build_hierarchy
from repro.simulation.task import Task
from tests.conftest import run_beside_meter
from tests.wattmeter import analytic_energy, power_trace, tick_count

# -- strategies -----------------------------------------------------------------

node_spec_strategy = st.builds(
    dict,
    cores=st.sampled_from([1, 2, 4, 8]),
    idle=st.integers(min_value=10, max_value=300),
    extra=st.integers(min_value=0, max_value=300),
    flops=st.floats(min_value=5.0e8, max_value=5.0e9),
)

platform_strategy = st.lists(
    st.lists(node_spec_strategy, min_size=1, max_size=3), min_size=1, max_size=3
)

workload_strategy = st.lists(
    st.tuples(
        st.floats(min_value=1e9, max_value=1e11),   # flop
        st.floats(min_value=0.0, max_value=120.0),  # arrival time
    ),
    min_size=1,
    max_size=15,
)

policy_strategy = st.sampled_from(
    ["POWER", "PERFORMANCE", "GREENPERF", "GREEN_SCORE", "RANDOM"]
)

#: Power-of-two periods: tick arithmetic is bit-exact in both paths.
period_strategy = st.sampled_from([0.5, 1.0, 2.0])


def build_platform(cluster_rows) -> Platform:
    clusters = []
    for c_index, rows in enumerate(cluster_rows):
        name = f"c{c_index}"
        nodes = []
        for n_index, row in enumerate(rows):
            spec = NodeSpec(
                name=f"{name}-n{n_index}",
                cluster=name,
                cores=row["cores"],
                flops_per_core=row["flops"],
                idle_power=float(row["idle"]),
                peak_power=float(row["idle"] + row["extra"]),
            )
            nodes.append(Node(spec))
        clusters.append(Cluster(name, nodes))
    return Platform(clusters)


def build_simulation(platform, policy_name, rows, *, sample_period):
    kwargs = {"seed": 0} if policy_name == "RANDOM" else {}
    master, seds = build_hierarchy(
        platform, scheduler=policy_by_name(policy_name, **kwargs)
    )
    simulation = MiddlewareSimulation(
        platform,
        master,
        seds,
        sample_period=sample_period,
    )
    simulation.submit_workload(
        [Task(flop=flop, arrival_time=arrival) for flop, arrival in rows]
    )
    return simulation


def tick_total(segment_log) -> int:
    """Sampling instants the segment log accounts, over every node."""
    return sum(tick_count(segment_log, node) for node in segment_log.nodes)


def assert_logs_equivalent(platform, polling_log, segment_log):
    assert segment_log.total_energy == polling_log.total_energy
    assert dict(segment_log.energy_by_node()) == dict(polling_log.energy_by_node())
    assert dict(segment_log.energy_by_cluster()) == dict(
        polling_log.energy_by_cluster()
    )
    assert np.array_equal(power_trace(segment_log), polling_log.power_trace())
    for node in platform.nodes:
        assert np.array_equal(
            power_trace(segment_log, node.name), polling_log.power_trace(node.name)
        )
    assert tick_total(segment_log) == polling_log.sample_count


class TestQuantizedMatchesPolling:
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        cluster_rows=platform_strategy,
        rows=workload_strategy,
        policy_name=policy_strategy,
        period=period_strategy,
    )
    def test_energy_figures_are_identical(self, cluster_rows, rows, policy_name, period):
        """Quantized segment accounting == seed polling, bit for bit."""
        segmented = build_simulation(
            build_platform(cluster_rows), policy_name, rows,
            sample_period=period,
        )
        segmented_result, polled_log = run_beside_meter(segmented)
        assert segmented_result.total_energy == polled_log.total_energy
        assert dict(segmented_result.energy_by_node) == dict(
            polled_log.energy_by_node()
        )
        assert dict(segmented_result.energy_by_cluster) == dict(
            polled_log.energy_by_cluster()
        )
        assert_logs_equivalent(segmented.platform, polled_log, segmented.energy_log)

    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=workload_strategy, policy_name=policy_strategy)
    def test_identical_on_the_paper_platform(self, rows, policy_name):
        """Same equivalence on the Table I platform (12-core utilisation
        steps are not dyadic, so energies agree to float rounding)."""
        segmented = build_simulation(
            grid5000_placement_platform(nodes_per_cluster=1), policy_name, rows,
            sample_period=1.0,
        )
        segmented_result, polled_log = run_beside_meter(segmented)
        assert segmented_result.total_energy == pytest.approx(
            polled_log.total_energy, rel=1e-9, abs=1e-6
        )
        polled_by_node = dict(polled_log.energy_by_node())
        for node, joules in segmented_result.energy_by_node.items():
            assert joules == pytest.approx(polled_by_node[node], rel=1e-9, abs=1e-6)
        assert tick_total(segmented.energy_log) == polled_log.sample_count

    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        cluster_rows=platform_strategy,
        rows=workload_strategy,
        period=period_strategy,
    )
    def test_analytic_energy_brackets_quantized(self, cluster_rows, rows, period):
        """Analytic energy differs from the 1 Hz rendering by at most one
        sample period's worth of platform peak power per transition."""
        simulation = build_simulation(
            build_platform(cluster_rows), "GREENPERF", rows, sample_period=period,
        )
        quantized = simulation.run()
        exact = analytic_energy(simulation.energy_log)
        peak_platform = sum(
            spec["idle"] + spec["extra"]
            for rows_ in cluster_rows
            for spec in rows_
        )
        # Quantized covers one extra left-closed instant at t=0, one
        # partial trailing period, and rounds each power transition to the
        # next instant — each task contributes at most two transitions.
        transitions = 2 * len(rows) + 2
        assert abs(quantized.total_energy - exact) <= (
            peak_platform * period * transitions + 1e-6
        )
