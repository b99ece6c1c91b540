"""Cross-module property-based tests.

These properties tie several subsystems together: whatever workload
hypothesis generates and whichever policy schedules it, the simulation
must conserve work, keep energy within physical bounds, respect core
limits and stay deterministic.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.greenperf import GreenPerfRanking
from repro.core.candidate_selection import select_candidate_servers
from repro.core.policies import policy_by_name
from repro.infrastructure.platform import grid5000_placement_platform
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.hierarchy import build_hierarchy
from repro.simulation.task import Task
from tests.conftest import executions, make_vector
from tests.equations import score
from tests.wattmeter import tick_count

# Small but non-trivial workloads keep each hypothesis example fast.
workload_strategy = st.lists(
    st.tuples(
        st.floats(min_value=1e9, max_value=1e11),   # flop
        st.floats(min_value=0.0, max_value=120.0),  # arrival time
    ),
    min_size=1,
    max_size=25,
)

policy_strategy = st.sampled_from(["POWER", "PERFORMANCE", "GREENPERF", "GREEN_SCORE", "RANDOM"])


def _run(policy_name, rows):
    platform = grid5000_placement_platform(nodes_per_cluster=1)
    kwargs = {"seed": 0} if policy_name == "RANDOM" else {}
    master, seds = build_hierarchy(platform, scheduler=policy_by_name(policy_name, **kwargs))
    simulation = MiddlewareSimulation(platform, master, seds, sample_period=10.0)
    tasks = [Task(flop=flop, arrival_time=arrival) for flop, arrival in rows]
    simulation.submit_workload(tasks)
    result = simulation.run()
    return platform, simulation, result


class TestSimulationProperties:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=workload_strategy, policy_name=policy_strategy)
    def test_work_conservation_under_any_workload(self, rows, policy_name):
        """Every submitted task completes exactly once, none is lost."""
        _, simulation, result = _run(policy_name, rows)
        assert result.metrics.task_count == len(rows)
        task_ids = [e.task_id for e in executions(simulation.metrics)]
        assert len(task_ids) == len(set(task_ids))

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=workload_strategy, policy_name=policy_strategy)
    def test_energy_within_physical_bounds(self, rows, policy_name):
        """Wattmeter energy lies between the idle floor and the peak ceiling."""
        platform, simulation, result = _run(policy_name, rows)
        energy_log = simulation.energy_log
        samples_per_node = sum(
            tick_count(energy_log, node.name) for node in platform.nodes
        ) / len(platform)
        period = simulation.energy_log.sample_period
        idle_floor = sum(node.spec.idle_power for node in platform.nodes)
        peak_ceiling = sum(node.spec.peak_power for node in platform.nodes)
        assert result.total_energy >= idle_floor * (samples_per_node - 1) * period * 0.99
        assert result.total_energy <= peak_ceiling * (samples_per_node + 1) * period

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=workload_strategy, policy_name=policy_strategy)
    def test_execution_times_are_consistent(self, rows, policy_name):
        """Start >= submission, completion > start, duration matches the node."""
        platform, simulation, _ = _run(policy_name, rows)
        for execution in executions(simulation.metrics):
            assert execution.started_at >= execution.submitted_at
            assert execution.completed_at > execution.started_at
            node = platform.node(execution.node)
            flops = node.spec.flops_per_core
            # The duration is exactly flop / flops of the executing node.
            matching = [r for r in rows if abs(r[0] / flops - execution.duration) < 1e-6]
            assert matching, "execution duration must match some submitted task on this node"

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=workload_strategy)
    def test_deterministic_policies_are_reproducible(self, rows):
        _, _, first = _run("GREENPERF", rows)
        _, _, second = _run("GREENPERF", rows)
        assert first.metrics.makespan == second.metrics.makespan
        assert first.metrics.tasks_per_node == second.metrics.tasks_per_node
        assert first.metrics.total_energy == second.metrics.total_energy


queue_job_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60),   # arrival
        st.integers(min_value=1, max_value=6),    # cores
        st.integers(min_value=1, max_value=30),   # runtime
    ),
    min_size=0,
    max_size=25,
)

#: Crash storms: capacity drops and recoveries at arbitrary instants.
capacity_event_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=80),   # time
        st.integers(min_value=-6, max_value=6).filter(lambda d: d != 0),
    ),
    max_size=8,
)

queue_policy_strategy = st.sampled_from(["FCFS", "EASY", "CONSERVATIVE", "DRF"])


def _run_queue(rows, policy_name, *, capacity_events=(), horizon=None):
    from repro.policy.queue.jobs import QueueJob
    from repro.policy.queue.policies import queue_policy_by_name
    from repro.policy.queue.simulator import check_schedule, run_queue_simulation

    jobs = [
        QueueJob(job_id=i, arrival=float(a), cores=c, runtime=float(r))
        for i, (a, c, r) in enumerate(rows)
    ]
    schedule = run_queue_simulation(
        jobs,
        capacity=8,
        policy=queue_policy_by_name(policy_name),
        capacity_events=capacity_events,
        horizon=horizon,
    )
    check_schedule(schedule)
    return schedule


class TestQueueConservation:
    """Jobs are conserved: submitted = completed + failed + queued + running.

    ``check_schedule`` already asserts the partition is exact; these
    properties pin the *composition* under the three regimes a sweep can
    produce — run to completion, cut at a horizon, and displaced by a
    crash storm — so no job is ever silently dropped or double-counted.
    """

    @settings(max_examples=100, deadline=None)
    @given(rows=queue_job_strategy, policy_name=queue_policy_strategy)
    def test_fault_free_runs_complete_everything(self, rows, policy_name):
        schedule = _run_queue(rows, policy_name)
        counts = schedule.counts
        assert counts["completed"] == len(rows)
        assert counts["failed"] == counts["queued"] == counts["running"] == 0

    @settings(max_examples=100, deadline=None)
    @given(
        rows=queue_job_strategy,
        policy_name=queue_policy_strategy,
        events=capacity_event_strategy,
    )
    def test_crash_storm_conserves_jobs(self, rows, policy_name, events):
        """Displacement may requeue or fail jobs, never lose them."""
        schedule = _run_queue(rows, policy_name, capacity_events=events)
        counts = schedule.counts
        assert (
            counts["completed"] + counts["failed"] + counts["queued"]
            + counts["running"]
            == len(rows)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        rows=queue_job_strategy,
        policy_name=queue_policy_strategy,
        events=capacity_event_strategy,
        horizon=st.integers(min_value=1, max_value=90),
    )
    def test_horizon_cut_conserves_jobs(self, rows, policy_name, events, horizon):
        """At the horizon, in-flight work is 'running', unarrived or
        unplaced work is 'queued' — the partition still sums exactly."""
        schedule = _run_queue(
            rows, policy_name, capacity_events=events, horizon=float(horizon)
        )
        counts = schedule.counts
        assert (
            counts["completed"] + counts["failed"] + counts["queued"]
            + counts["running"]
            == len(rows)
        )

    @settings(max_examples=50, deadline=None)
    @given(rows=queue_job_strategy, policy_name=queue_policy_strategy)
    def test_queue_runs_are_reproducible(self, rows, policy_name):
        first = _run_queue(rows, policy_name)
        second = _run_queue(rows, policy_name)
        assert first == second


class TestCoreProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        powers=st.lists(st.floats(min_value=10, max_value=1000), min_size=1, max_size=25),
        flops=st.lists(st.floats(min_value=1e8, max_value=1e12), min_size=1, max_size=25),
        preference=st.floats(min_value=0, max_value=1),
    )
    def test_algorithm1_selection_is_a_greenperf_prefix(self, powers, flops, preference):
        """Algorithm 1 always returns a prefix of the GreenPerf ranking."""
        size = min(len(powers), len(flops))
        vectors = [
            make_vector(server=f"n-{i}", mean_power=powers[i], flops_per_core=flops[i], cores=1)
            for i in range(size)
        ]
        ranking = GreenPerfRanking(vectors)
        selected = select_candidate_servers(ranking, preference)
        assert list(selected) == list(ranking.entries[: len(selected)])

    @settings(max_examples=100, deadline=None)
    @given(
        time_fast=st.floats(min_value=0.1, max_value=1e3),
        slowdown=st.floats(min_value=1.01, max_value=100.0),
        energy=st.floats(min_value=0.1, max_value=1e6),
        preference=st.floats(min_value=-1, max_value=1),
    )
    def test_score_prefers_faster_server_at_equal_energy(
        self, time_fast, slowdown, energy, preference
    ):
        """At equal energy, a faster server never scores worse (Eq. 6)."""
        fast = score(time_fast, energy, preference)
        slow = score(time_fast * slowdown, energy, preference)
        assert fast <= slow + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        powers=st.lists(st.floats(min_value=10, max_value=1000), min_size=2, max_size=20),
        preference_low=st.floats(min_value=0, max_value=1),
        preference_high=st.floats(min_value=0, max_value=1),
    )
    def test_algorithm1_is_monotone_in_the_budget(
        self, powers, preference_low, preference_high
    ):
        """A larger provider preference never selects fewer servers."""
        low, high = sorted((preference_low, preference_high))
        vectors = [
            make_vector(server=f"n-{i}", mean_power=power) for i, power in enumerate(powers)
        ]
        ranking = GreenPerfRanking(vectors)
        assert len(select_candidate_servers(ranking, low)) <= len(
            select_candidate_servers(ranking, high)
        )
