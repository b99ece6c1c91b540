"""Property-based invariant harness for the queue policy family.

Whatever job stream hypothesis generates and whichever policy schedules
it, the resulting schedule must satisfy the shared structural validator
:func:`repro.policy.queue.simulator.check_schedule` — no over-allocation
against the capacity step function, no negative resource counts, an
exact outcome partition, and no job running past its wall limit.  On a
fault-free platform wide enough for every job, every job must also
eventually start (and therefore complete).

On top of the shared validator, the backfill policies carry their
defining promises:

* **EASY** never delays the queue head relative to FCFS — with exact
  estimates, the first head-blocked job starts no later than it would
  have under plain FCFS — and every shadow-time reservation it records
  is honoured (the head starts no later than its latest promise);
* **CONSERVATIVE** reservations within one planning pass never
  over-commit the machine: the reserved-core sum at any instant stays
  within capacity, and no job holds two reservations in one plan.

Integer arrivals/runtimes keep every comparison exact, so these are
equality properties, not tolerance checks.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.policy.queue.jobs import QueueJob
from repro.policy.queue.policies import (
    QUEUE_POLICY_NAMES,
    queue_policy_by_name,
)
from repro.policy.queue.simulator import check_schedule, run_queue_simulation

#: Widest job the strategies generate; capacities start here so every
#: job fits the fault-free machine and must eventually start.
MAX_CORES = 8

job_entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),            # arrival
        st.integers(min_value=1, max_value=MAX_CORES),     # cores
        st.integers(min_value=1, max_value=40),            # runtime
        st.one_of(st.none(), st.integers(min_value=1, max_value=60)),  # request
        st.sampled_from(("alice", "bob", "carol")),        # user
    ),
    min_size=0,
    max_size=30,
)

capacity_strategy = st.integers(min_value=MAX_CORES, max_value=2 * MAX_CORES)


def build_jobs(entries, *, exact_estimates: bool = False) -> list[QueueJob]:
    """Positional job ids keep streams deterministic across processes."""
    return [
        QueueJob(
            job_id=index,
            arrival=float(arrival),
            cores=cores,
            runtime=float(runtime),
            requested_runtime=None if exact_estimates or requested is None
            else float(requested),
            user=user,
        )
        for index, (arrival, cores, runtime, requested, user) in enumerate(entries)
    ]


def run_policy(name, jobs, capacity, **kwargs):
    schedule = run_queue_simulation(
        jobs, capacity=capacity, policy=queue_policy_by_name(name), **kwargs
    )
    check_schedule(schedule)
    return schedule


class RecordingPolicy:
    """A queue policy that keeps every ``(now, decision)`` it planned."""

    def __init__(self, name):
        self._policy = queue_policy_by_name(name)
        self.name = self._policy.name
        self.plans = []

    def plan(self, view):
        decision = self._policy.plan(view)
        self.plans.append((view.now, decision))
        return decision


def run_recorded(name, jobs, capacity):
    """``run_policy`` that also returns the planning passes, in order."""
    policy = RecordingPolicy(name)
    schedule = run_queue_simulation(jobs, capacity=capacity, policy=policy)
    check_schedule(schedule)
    return schedule, policy.plans


class TestSharedInvariants:
    """check_schedule + eventual completion, 200 examples per policy."""

    @settings(max_examples=200, deadline=None)
    @given(entries=job_entries, capacity=capacity_strategy)
    def test_fcfs(self, entries, capacity):
        schedule = run_policy("FCFS", build_jobs(entries), capacity)
        assert schedule.counts["completed"] == len(entries)

    @settings(max_examples=200, deadline=None)
    @given(entries=job_entries, capacity=capacity_strategy)
    def test_easy(self, entries, capacity):
        schedule = run_policy("EASY", build_jobs(entries), capacity)
        assert schedule.counts["completed"] == len(entries)

    @settings(max_examples=200, deadline=None)
    @given(entries=job_entries, capacity=capacity_strategy)
    def test_conservative(self, entries, capacity):
        schedule = run_policy("CONSERVATIVE", build_jobs(entries), capacity)
        assert schedule.counts["completed"] == len(entries)

    @settings(max_examples=200, deadline=None)
    @given(entries=job_entries, capacity=capacity_strategy)
    def test_drf(self, entries, capacity):
        schedule = run_policy("DRF", build_jobs(entries), capacity)
        assert schedule.counts["completed"] == len(entries)


class TestEasyGuarantees:
    @settings(max_examples=200, deadline=None)
    @given(entries=job_entries, capacity=capacity_strategy)
    def test_easy_never_delays_the_first_blocked_job(self, entries, capacity):
        """The backfill licence: with exact estimates, the first job FCFS
        head-blocks — first in *queue* order ``(arrival, job_id)``, the
        order in which jobs become head — starts under EASY no later
        than under FCFS.

        Until that job blocks, no queue ever formed, so both systems
        are identical; from then on EASY only starts extra jobs that
        fit inside the head's shadow window.  (Jobs *behind* the head
        carry no such guarantee — EASY may trade their start times for
        utilisation.)
        """
        jobs = build_jobs(entries, exact_estimates=True)
        fcfs = run_policy("FCFS", jobs, capacity)
        blocked = next(
            (
                record
                for record in sorted(
                    fcfs.records, key=lambda r: (r.job.arrival, r.job.job_id)
                )
                if record.start is not None and record.start > record.job.arrival
            ),
            None,
        )
        if blocked is None:
            return  # stream never saturates: nothing to promise
        easy = run_policy("EASY", jobs, capacity)
        easy_start = easy.records[blocked.job.job_id].start
        assert easy_start is not None
        assert easy_start <= blocked.start

    @settings(max_examples=200, deadline=None)
    @given(entries=job_entries, capacity=capacity_strategy)
    def test_easy_honours_its_shadow_promises(self, entries, capacity):
        """Every head reservation is kept: the job starts no later than
        the *latest* shadow time promised for it (replanning may only
        hold or improve the promise while estimates bound execution)."""
        jobs = build_jobs(entries)
        schedule, plans = run_recorded("EASY", jobs, capacity)
        last_promise: dict[int, float] = {}
        for _, decision in plans:
            for reservation in decision.reservations:
                last_promise[reservation.job_id] = reservation.start
        for record in schedule.records:
            promise = last_promise.get(record.job.job_id)
            if promise is None or record.start is None:
                continue
            assert record.start <= promise, (
                f"job {record.job.job_id} promised t={promise}, "
                f"started t={record.start}"
            )


class TestConservativeGuarantees:
    @settings(max_examples=200, deadline=None)
    @given(entries=job_entries, capacity=capacity_strategy)
    def test_reservations_never_overcommit(self, entries, capacity):
        """Within one planning pass: one reservation per job, every
        reservation in the future with a positive span, and the
        reserved-core sum at any instant within the machine."""
        jobs = build_jobs(entries)
        _, plans = run_recorded("CONSERVATIVE", jobs, capacity)
        for now, decision in plans:
            seen: set[int] = set()
            deltas: dict[float, int] = {}
            for reservation in decision.reservations:
                assert reservation.job_id not in seen, (
                    f"t={now}: job {reservation.job_id} reserved twice"
                )
                seen.add(reservation.job_id)
                assert reservation.start >= now
                assert reservation.end > reservation.start
                deltas[reservation.start] = (
                    deltas.get(reservation.start, 0) + reservation.cores
                )
                deltas[reservation.end] = (
                    deltas.get(reservation.end, 0) - reservation.cores
                )
            reserved = 0
            for time in sorted(deltas):
                reserved += deltas[time]
                assert reserved <= capacity, (
                    f"t={now}: plan reserves {reserved} cores at {time}, "
                    f"capacity is {capacity}"
                )

    @settings(max_examples=200, deadline=None)
    @given(entries=job_entries, capacity=capacity_strategy)
    def test_every_queued_job_holds_a_reservation(self, entries, capacity):
        """Conservative promises everyone: any job still queued after a
        pass appears in that pass's reservation list."""
        jobs = build_jobs(entries)
        schedule, plans = run_recorded("CONSERVATIVE", jobs, capacity)
        started_by: dict[int, float] = {
            record.job.job_id: record.start
            for record in schedule.records
            if record.start is not None
        }
        for now, decision in plans:
            reserved = {reservation.job_id for reservation in decision.reservations}
            for job in jobs:
                queued = (
                    job.arrival <= now
                    and job.job_id not in decision.start_now
                    and started_by.get(job.job_id, float("inf")) > now
                )
                if queued:
                    assert job.job_id in reserved, (
                        f"t={now}: queued job {job.job_id} has no reservation"
                    )


class TestPolicyAgreement:
    @settings(max_examples=100, deadline=None)
    @given(entries=job_entries, capacity=capacity_strategy)
    def test_unsaturated_streams_schedule_identically(self, entries, capacity):
        """When FCFS never queues anyone, there is nothing to reorder:
        all four policies produce the same start time for every job."""
        jobs = build_jobs(entries, exact_estimates=True)
        fcfs = run_policy("FCFS", jobs, capacity)
        if any(
            record.start is not None and record.start > record.job.arrival
            for record in fcfs.records
        ):
            return
        starts = [record.start for record in fcfs.records]
        for name in QUEUE_POLICY_NAMES:
            other = run_policy(name, jobs, capacity)
            assert [record.start for record in other.records] == starts, name
