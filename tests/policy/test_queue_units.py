"""Unit tests for the queue policy family: jobs, profile, policies, simulator.

The property harness (``test_queue_invariants.py``) covers the family's
global invariants; these tests pin the *specific* behaviours — wall-limit
kills, displacement order, the exact backfill decisions of the worked
examples, and the wiring into the policy registry and the lab backend.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.policy.queue import (
    CoreProfile,
    QueueJob,
    SimulationError,
    check_schedule,
    jobs_from_tasks,
    queue_policy_by_name,
    run_queue_simulation,
)
from repro.policy.queue.policies import SchedulerView


def run(name, jobs, capacity, **kwargs):
    schedule = run_queue_simulation(
        jobs, capacity=capacity, policy=queue_policy_by_name(name), **kwargs
    )
    check_schedule(schedule)
    return schedule


class TestQueueJob:
    def test_estimate_falls_back_to_runtime(self):
        assert QueueJob(0, 0.0, 1, 50.0).estimate == 50.0
        assert QueueJob(0, 0.0, 1, 50.0, requested_runtime=80.0).estimate == 80.0

    def test_wall_limit_clips_execution(self):
        job = QueueJob(0, 0.0, 1, 100.0, requested_runtime=30.0)
        assert job.effective_runtime == 30.0
        assert job.effective_runtime <= job.estimate

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cores": 0},
            {"runtime": -1.0},
            {"requested_runtime": -5.0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        fields = {"job_id": 0, "arrival": 0.0, "cores": 1, "runtime": 1.0}
        fields.update(kwargs)
        with pytest.raises(ValueError):
            QueueJob(**fields)


class TestConverters:
    def test_tasks_round_trip_swf_runtimes(self):
        """mapping.task_for encodes runtime as flop; jobs_from_tasks at the
        same reference speed must recover the SWF run_time exactly."""
        from repro.workload.ingest.mapping import (
            DEFAULT_FLOPS_PER_CORE,
            SWFTraceMap,
        )
        from repro.workload.ingest.swf import parse_swf

        lines = ["1 0 0 300 4 -1 -1 4 600 -1 1 7 1 1 1 -1 -1 -1"]
        [swf_job] = parse_swf(lines)
        task = SWFTraceMap().task_for(swf_job, origin=0.0)
        [job] = jobs_from_tasks([task], flops_per_core=DEFAULT_FLOPS_PER_CORE)
        assert job.runtime == 300.0
        assert job.cores == 4
        assert job.requested_runtime == 600.0

    def test_positional_ids_ignore_global_task_counter(self):
        from repro.simulation.task import Task

        tasks = [Task(flop=1e9, arrival_time=0.0), Task(flop=1e9, arrival_time=1.0)]
        jobs = jobs_from_tasks(tasks, flops_per_core=1e9)
        assert [job.job_id for job in jobs] == [0, 1]


class TestCoreProfile:
    def test_reservations_stack_and_expire(self):
        profile = CoreProfile(4)
        profile.reserve(0.0, cores=3, duration=10.0)
        profile.reserve(5.0, cores=1, duration=10.0)
        # Free cores: 1 on [0, 5), 0 on [5, 10), 3 on [10, 15), then 4.
        assert profile.earliest_start(cores=1, duration=5.0, not_before=0.0) == 0.0
        assert profile.earliest_start(cores=1, duration=1.0, not_before=5.0) == 10.0
        assert profile.earliest_start(cores=3, duration=5.0, not_before=0.0) == 10.0
        assert profile.earliest_start(cores=4, duration=1.0, not_before=0.0) == 15.0

    def test_earliest_start_skips_busy_windows(self):
        profile = CoreProfile(4)
        profile.reserve(0.0, cores=3, duration=10.0)
        assert profile.earliest_start(cores=2, duration=5.0, not_before=0.0) == 10.0
        assert profile.earliest_start(cores=1, duration=99.0, not_before=0.0) == 0.0

    def test_too_wide_jobs_have_no_start(self):
        assert (
            CoreProfile(4).earliest_start(cores=5, duration=1.0, not_before=0.0)
            is None
        )


class TestPolicyDecisions:
    def view(self, queue, *, capacity=4):
        return SchedulerView(
            now=0.0,
            capacity=capacity,
            free_cores=capacity,
            running=(),
            queue=tuple(queue),
        )

    def test_fcfs_head_blocks(self):
        queue = (
            QueueJob(0, 0.0, 3, 10.0),
            QueueJob(1, 0.0, 4, 10.0),
            QueueJob(2, 0.0, 1, 5.0),
        )
        assert queue_policy_by_name("fcfs").plan(self.view(queue)).start_now == [0]

    def test_easy_backfills_behind_a_reserved_head(self):
        queue = (
            QueueJob(0, 0.0, 3, 10.0),
            QueueJob(1, 0.0, 4, 10.0),
            QueueJob(2, 0.0, 1, 5.0),
        )
        decision = queue_policy_by_name("easy").plan(self.view(queue))
        assert decision.start_now == [0, 2]  # job 2 fits the shadow window
        [reservation] = decision.reservations
        assert (reservation.job_id, reservation.start) == (1, 10.0)

    def test_easy_refuses_backfill_that_would_delay_the_head(self):
        queue = (
            QueueJob(0, 0.0, 3, 10.0),
            QueueJob(1, 0.0, 4, 10.0),
            QueueJob(2, 0.0, 1, 20.0),  # would overhang into the head's slot
        )
        decision = queue_policy_by_name("easy").plan(self.view(queue))
        assert decision.start_now == [0]

    def test_conservative_reserves_every_queued_job(self):
        queue = (
            QueueJob(0, 0.0, 3, 10.0),
            QueueJob(1, 0.0, 4, 10.0),
            QueueJob(2, 0.0, 1, 5.0),
        )
        decision = queue_policy_by_name("conservative").plan(self.view(queue))
        assert [r.job_id for r in decision.reservations] == [0, 1, 2]

    def test_drf_prefers_the_starved_user(self):
        view = SchedulerView(
            now=0.0,
            capacity=4,
            free_cores=2,
            running=(),
            queue=(
                QueueJob(0, 0.0, 1, 10.0, user="alice"),
                QueueJob(1, 0.0, 1, 10.0, user="bob"),
            ),
        )
        # Equal shares: ties break by arrival then id -> alice first, and
        # once alice holds a core, bob's next job wins the second slot.
        assert queue_policy_by_name("drf").plan(view).start_now == [0, 1]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown queue policy"):
            queue_policy_by_name("sjf")


class TestSimulatorSemantics:
    def test_wall_limit_kills_underestimated_jobs(self):
        [record] = run(
            "fcfs",
            [QueueJob(0, 0.0, 1, 100.0, requested_runtime=30.0)],
            capacity=1,
        ).records
        assert record.outcome == "completed"
        assert record.end - record.start == 30.0

    def test_unrunnable_jobs_fail_at_arrival(self):
        schedule = run(
            "easy",
            [QueueJob(0, 0.0, 9, 10.0), QueueJob(1, 0.0, 1, 10.0)],
            capacity=8,
        )
        assert schedule.records[0].outcome == "failed"
        assert schedule.records[1].outcome == "completed"

    def test_crash_displaces_latest_started_then_requeues(self):
        schedule = run(
            "fcfs",
            [QueueJob(0, 0.0, 2, 10.0), QueueJob(1, 0.0, 2, 10.0)],
            capacity=4,
            capacity_events=[(5.0, -2), (8.0, 2)],
        )
        first, second = schedule.records
        # Job 1 started later, so the capacity drop displaces it; it
        # requeues and completes after the recovery.
        assert first.outcome == second.outcome == "completed"
        assert first.attempts == 1
        assert second.attempts == 2
        assert second.start == 8.0

    def test_requeue_limit_exhaustion_fails_the_job(self):
        schedule = run(
            "fcfs",
            [QueueJob(0, 0.0, 2, 10.0)],
            capacity=2,
            capacity_events=[(1.0, -2), (2.0, 2)],
            requeue_limit=0,
        )
        assert schedule.records[0].outcome == "failed"
        assert schedule.counts["failed"] == 1

    def test_horizon_cut_partitions_outcomes(self):
        schedule = run(
            "fcfs",
            [
                QueueJob(0, 0.0, 2, 10.0),
                QueueJob(1, 0.0, 2, 10.0),
                QueueJob(2, 50.0, 1, 1.0),  # arrives after the horizon
            ],
            capacity=2,
            horizon=15.0,
        )
        assert [record.outcome for record in schedule.records] == [
            "completed",
            "running",
            "queued",
        ]

    def test_rogue_policy_decisions_are_refused(self):
        class Rogue:
            name = "ROGUE"

            def plan(self, view):
                from repro.policy.queue.policies import PlanDecision

                return PlanDecision(start_now=[99])

        with pytest.raises(SimulationError, match="not queued"):
            run_queue_simulation(
                [QueueJob(0, 0.0, 1, 1.0)], capacity=1, policy=Rogue()
            )

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_queue_simulation(
                [QueueJob(0, 0.0, 1, 1.0), QueueJob(0, 1.0, 1, 1.0)],
                capacity=1,
                policy=queue_policy_by_name("fcfs"),
            )


class TestLabQueueBackend:
    def make_session(self, **kwargs):
        from repro.lab.components import (
            PlatformSource,
            PolicySource,
            WorkloadSource,
        )
        from repro.lab.session import LabSession
        from tests.conftest import steady_workload

        defaults = dict(
            platform=PlatformSource.table1(1),
            workload=WorkloadSource.from_generator(steady_workload(5)),
            policy=PolicySource("EASY"),
        )
        defaults.update(kwargs)
        return LabSession(**defaults)

    def test_queue_policy_selects_queue_backend(self):
        session = self.make_session()
        assert session.backend == "queue"
        result = session.run()
        assert result.backend == "queue"
        assert result.queue is not None
        assert result.metrics["task_count"] == 5.0

    def test_family_plugin_forces_middleware_backend(self):
        from repro.lab.components import PolicySource

        session = self.make_session(policy=PolicySource("EASY", family="plugin"))
        assert session.backend == "middleware"
        result = session.run()
        assert result.simulation is not None
        assert result.metrics["task_count"] == 5.0

    def test_queue_cores_rejected_on_other_backends(self):
        from repro.lab.components import LabError, PolicySource

        session = self.make_session(
            policy=PolicySource("POWER"), queue_cores=4
        )
        with pytest.raises(LabError, match="queue_cores"):
            session.validate()

    def test_seed_rejected_on_queue_policies(self):
        from repro.lab.components import LabError, PolicySource

        session = self.make_session(policy=PolicySource("DRF", seed=3))
        with pytest.raises(LabError, match="deterministic"):
            session.validate()


class TestQueueAdapter:
    def test_adapter_prefers_free_servers_then_tie_breaks(self):
        from repro.core.policies import policy_by_name
        from repro.middleware.estimation import EstimationTags
        from repro.middleware.plugin_scheduler import CandidateEntry
        from tests.conftest import make_vector

        def entry(name, free, waiting=0.0, cores=4):
            vector = make_vector(server=name, cores=cores)
            vector.set(EstimationTags.FREE_CORES, free)
            vector.set(EstimationTags.WAITING_TIME, waiting)
            return CandidateEntry.from_vector(vector)

        candidates = [
            entry("busy", 0, waiting=30.0),
            entry("wide-open", 4),
            entry("almost-full", 1),
        ]
        easy = policy_by_name("EASY").sort(None, candidates)
        assert [e.server for e in easy] == ["almost-full", "wide-open", "busy"]
        conservative = policy_by_name("CONSERVATIVE").sort(None, candidates)
        assert [e.server for e in conservative] == [
            "wide-open",
            "almost-full",
            "busy",
        ]


class TestDoctestPresence:
    def test_every_policy_module_carries_doctests(self):
        """CI runs ``--doctest-modules`` over ``src/repro/policy``; a
        module without a single example would silently contribute
        nothing, so require at least one per module."""
        package = (
            Path(__file__).parent.parent.parent / "src" / "repro" / "policy"
        )
        modules = sorted(package.rglob("*.py"))
        assert modules, "policy package went missing?"
        for module in modules:
            assert ">>> " in module.read_text("utf-8"), (
                f"{module.relative_to(package.parent.parent)} has no doctests"
            )
