"""Deterministic event-driven simulator for the queue policy family.

The loop processes events in a fixed order at each instant —
completions, then capacity changes, then arrivals, then one scheduling
pass — so a run is a pure function of ``(jobs, capacity, policy,
capacity_events, horizon, requeue_limit)``.  That purity is what keeps
``repro sweep --jobs N`` byte-identical to serial execution.

Fault semantics mirror the middleware driver
(:mod:`repro.middleware.driver`): a capacity drop (``NodeFailure``)
displaces the latest-started jobs first (ties broken by larger job id),
and each displaced job is **requeued** at its original arrival priority
unless it has already been displaced ``requeue_limit`` times, in which
case it **fails**.  Reservations need no explicit invalidation: every
scheduling pass replans from the live view, so a crash simply yields a
new plan without the dead cores.

:func:`check_schedule` is the shared validator the property-based
harness (``tests/policy/test_queue_invariants.py``) drives: it rebuilds
core usage from the execution slices and asserts it never exceeds the
capacity step function, that no quantity goes negative, and that the
outcome partition is exact.

>>> from repro.policy.queue.jobs import QueueJob
>>> from repro.policy.queue.policies import queue_policy_by_name
>>> jobs = [QueueJob(0, 0.0, 3, 10.0), QueueJob(1, 0.0, 4, 10.0),
...         QueueJob(2, 0.0, 1, 10.0)]
>>> fcfs = run_queue_simulation(jobs, capacity=4,
...                             policy=queue_policy_by_name("fcfs"))
>>> easy = run_queue_simulation(jobs, capacity=4,
...                             policy=queue_policy_by_name("easy"))
>>> (fcfs.makespan, easy.makespan)   # job 2 backfills around the head
(30.0, 20.0)
>>> check_schedule(fcfs); check_schedule(easy)   # invariants hold
"""

from __future__ import annotations

import bisect
import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.policy.queue.jobs import QueueJob
from repro.policy.queue.policies import (
    QueuePolicy,
    RunningJob,
    SchedulerView,
)

__all__ = [
    "ExecutionSlice",
    "JobRecord",
    "QueueSchedule",
    "SimulationError",
    "check_schedule",
    "run_queue_simulation",
]

#: Outcomes a job can end a run with.
OUTCOMES = ("completed", "failed", "queued", "running")


class SimulationError(RuntimeError):
    """A policy decision the simulator refuses: unknown job or over-allocation."""


@dataclass(frozen=True, slots=True)
class ExecutionSlice:
    """One contiguous stretch of a job occupying cores: ``[start, end)``."""

    job_id: int
    start: float
    end: float
    cores: int


@dataclass(frozen=True, slots=True)
class JobRecord:
    """Final per-job outcome.

    ``start``/``end`` describe the *final* execution attempt (``None``
    when the job never ran to completion); partial attempts cut short
    by crashes live in :attr:`QueueSchedule.slices`.  ``attempts``
    counts starts, so a crash-displaced-then-requeued job that finishes
    shows ``attempts=2``.
    """

    job: QueueJob
    outcome: str
    start: float | None = None
    end: float | None = None
    attempts: int = 0

    @property
    def wait_time(self) -> float | None:
        """Queue wait of the final attempt (``None`` if it never started)."""
        if self.start is None:
            return None
        return self.start - self.job.arrival


@dataclass(frozen=True, slots=True)
class QueueSchedule:
    """Everything a queue-policy run produced.

    ``capacity_steps`` is the capacity step function as ``(time, cores)``
    pairs starting at time 0; ``busy_core_seconds`` integrates actual
    core occupancy (including attempts later killed by crashes), which
    is what the energy model in :mod:`repro.lab.observe` consumes.
    """

    policy_name: str
    capacity: int
    records: tuple[JobRecord, ...]
    slices: tuple[ExecutionSlice, ...]
    capacity_steps: tuple[tuple[float, int], ...]
    busy_core_seconds: float
    makespan: float
    horizon: float | None

    @property
    def counts(self) -> Mapping[str, int]:
        """Outcome counts; always carries every outcome key plus ``submitted``.

        >>> from repro.policy.queue.policies import queue_policy_by_name
        >>> schedule = run_queue_simulation(
        ...     [QueueJob(0, 0.0, 1, 5.0)], capacity=1,
        ...     policy=queue_policy_by_name("fcfs"))
        >>> schedule.counts["completed"], schedule.counts["submitted"]
        (1, 1)
        """
        counter = Counter(record.outcome for record in self.records)
        counts = {outcome: counter.get(outcome, 0) for outcome in OUTCOMES}
        counts["submitted"] = len(self.records)
        return counts

    @property
    def mean_wait(self) -> float:
        """Mean final-attempt queue wait over jobs that started; 0.0 if none."""
        waits = [r.wait_time for r in self.records if r.wait_time is not None]
        if not waits:
            return 0.0
        return sum(waits) / len(waits)


@dataclass(slots=True)
class _Live:
    """Mutable per-job state while the simulation runs."""

    job: QueueJob
    attempts: int = 0
    token: int = 0
    start: float | None = None
    end: float | None = None
    outcome: str | None = None

    def record(self) -> JobRecord:
        outcome = self.outcome if self.outcome is not None else "queued"
        return JobRecord(
            job=self.job,
            outcome=outcome,
            start=self.start if outcome in ("completed", "running") else None,
            end=self.end if outcome == "completed" else None,
            attempts=self.attempts,
        )


def run_queue_simulation(
    jobs: Sequence[QueueJob],
    *,
    capacity: int,
    policy: QueuePolicy,
    capacity_events: Sequence[tuple[float, int]] = (),
    horizon: float | None = None,
    requeue_limit: int = 1,
) -> QueueSchedule:
    """Run ``jobs`` through ``policy`` on a ``capacity``-core system.

    ``capacity_events`` are ``(time, delta_cores)`` pairs (negative for
    failures, positive for recoveries); ``horizon`` cuts the run at a
    fixed time, leaving in-flight work ``running`` and the rest
    ``queued``.  Jobs wider than the system can ever be fail on
    arrival.  See the module docstring for the full semantics.
    """
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    ids = [job.job_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError("job_ids must be unique")

    live = {job.job_id: _Live(job) for job in jobs}
    arrivals = sorted(jobs, key=lambda j: (j.arrival, j.job_id))
    cap_events = sorted(
        ((float(t), int(d)) for t, d in capacity_events), key=lambda e: e[0]
    )
    max_capacity = running_cap = capacity
    for _, delta in cap_events:
        running_cap = max(0, running_cap + delta)
        max_capacity = max(max_capacity, running_cap)

    queue: list[QueueJob] = []
    running: dict[int, QueueJob] = {}
    heap: list[tuple[float, int, int]] = []
    slices: list[ExecutionSlice] = []
    capacity_steps: list[tuple[float, int]] = [(0.0, capacity)]
    capacity_now = capacity
    used = 0
    busy = 0.0
    makespan = 0.0
    queue_key = lambda j: (j.arrival, j.job_id)  # noqa: E731
    arrival_index = 0
    event_index = 0

    def displace(time: float) -> None:
        nonlocal used, busy
        while used > capacity_now:
            victim_id = max(running, key=lambda jid: (live[jid].start, jid))
            state = live[victim_id]
            del running[victim_id]
            used -= state.job.cores
            busy += state.job.cores * (time - state.start)
            slices.append(
                ExecutionSlice(victim_id, state.start, time, state.job.cores)
            )
            state.token += 1  # invalidate the pending completion event
            if state.attempts > requeue_limit:
                state.outcome = "failed"
            else:
                state.start = None
                bisect.insort(queue, state.job, key=queue_key)

    while True:
        while heap and heap[0][2] != live[heap[0][1]].token:
            heapq.heappop(heap)  # stale completion of a displaced attempt
        times = []
        if arrival_index < len(arrivals):
            times.append(arrivals[arrival_index].arrival)
        if heap:
            times.append(heap[0][0])
        if event_index < len(cap_events):
            times.append(cap_events[event_index][0])
        if not times:
            break
        now = min(times)
        if horizon is not None and now > horizon:
            break

        while heap and heap[0][0] == now:
            _, job_id, token = heapq.heappop(heap)
            state = live[job_id]
            if token != state.token:
                continue
            del running[job_id]
            used -= state.job.cores
            busy += state.job.cores * (now - state.start)
            slices.append(ExecutionSlice(job_id, state.start, now, state.job.cores))
            state.end = now
            state.outcome = "completed"
            makespan = max(makespan, now)

        changed = False
        while event_index < len(cap_events) and cap_events[event_index][0] == now:
            capacity_now = max(0, capacity_now + cap_events[event_index][1])
            event_index += 1
            changed = True
        if changed:
            capacity_steps.append((now, capacity_now))
            displace(now)

        while (
            arrival_index < len(arrivals)
            and arrivals[arrival_index].arrival == now
        ):
            job = arrivals[arrival_index]
            arrival_index += 1
            if job.cores > max_capacity:
                live[job.job_id].outcome = "failed"
                continue
            bisect.insort(queue, job, key=queue_key)

        view = SchedulerView(
            now=now,
            capacity=capacity_now,
            free_cores=capacity_now - used,
            running=tuple(
                RunningJob(
                    job_id=jid,
                    cores=job.cores,
                    start=live[jid].start,
                    estimated_end=live[jid].start + job.estimate,
                    user=job.user,
                )
                for jid, job in sorted(running.items())
            ),
            queue=tuple(queue),
        )
        decision = policy.plan(view)
        queued_ids = {job.job_id for job in queue}
        for job_id in decision.start_now:
            if job_id not in queued_ids:
                raise SimulationError(
                    f"{policy.name}: started job {job_id} which is not queued"
                )
            state = live[job_id]
            job = state.job
            if job.cores > capacity_now - used:
                raise SimulationError(
                    f"{policy.name}: job {job_id} needs {job.cores} cores, "
                    f"only {capacity_now - used} free"
                )
            queued_ids.remove(job_id)
            queue.remove(job)
            state.attempts += 1
            state.token += 1
            state.start = now
            running[job_id] = job
            used += job.cores
            heapq.heappush(heap, (now + job.effective_runtime, job_id, state.token))

    cut = horizon if horizon is not None else makespan
    for job_id, job in sorted(running.items()):
        state = live[job_id]
        state.outcome = "running"
        busy += job.cores * (cut - state.start)
        slices.append(ExecutionSlice(job_id, state.start, cut, job.cores))

    return QueueSchedule(
        policy_name=policy.name,
        capacity=capacity,
        records=tuple(
            live[job_id].record() for job_id in sorted(live)
        ),
        slices=tuple(slices),
        capacity_steps=tuple(capacity_steps),
        busy_core_seconds=busy,
        makespan=makespan,
        horizon=horizon,
    )


def check_schedule(schedule: QueueSchedule) -> None:
    """Assert the structural invariants every queue schedule must satisfy.

    This is the shared ``check_system``-style validator the hypothesis
    harness drives for all four policies:

    - every outcome is one of ``completed/failed/queued/running`` and
      the partition over submitted jobs is exact;
    - no job starts before it arrives, ends before it starts, or runs
      longer than its wall limit;
    - rebuilt core usage from the execution slices never exceeds the
      capacity step function and never goes negative.

    Raises :class:`AssertionError` with a descriptive message on the
    first violation; returns ``None`` when all invariants hold.
    """
    counts = schedule.counts
    total = sum(counts[outcome] for outcome in OUTCOMES)
    assert total == counts["submitted"], (
        f"outcome partition leaks: {counts}"
    )
    for record in schedule.records:
        assert record.outcome in OUTCOMES, f"unknown outcome {record.outcome!r}"
        if record.outcome == "completed":
            assert record.start is not None and record.end is not None, (
                f"job {record.job.job_id}: completed without start/end"
            )
            assert record.end >= record.start >= record.job.arrival, (
                f"job {record.job.job_id}: start/end out of order"
            )
            span = record.end - record.start
            assert span <= record.job.estimate + 1e-9, (
                f"job {record.job.job_id}: ran {span}s past its "
                f"{record.job.estimate}s wall limit"
            )
            assert record.attempts >= 1, (
                f"job {record.job.job_id}: completed with no attempts"
            )
    for piece in schedule.slices:
        assert piece.cores > 0, f"slice {piece}: non-positive cores"
        assert piece.end >= piece.start, f"slice {piece}: negative span"

    deltas: dict[float, int] = {}
    for piece in schedule.slices:
        if piece.end == piece.start:
            continue
        deltas[piece.start] = deltas.get(piece.start, 0) + piece.cores
        deltas[piece.end] = deltas.get(piece.end, 0) - piece.cores
    step_times = [time for time, _ in schedule.capacity_steps]
    step_values = [cores for _, cores in schedule.capacity_steps]
    used = 0
    for time in sorted(set(deltas) | set(step_times)):
        used += deltas.get(time, 0)
        assert used >= 0, f"t={time}: usage went negative ({used})"
        index = bisect.bisect_right(step_times, time) - 1
        cap = step_values[index] if index >= 0 else schedule.capacity
        assert used <= cap, (
            f"t={time}: {used} cores in use exceeds capacity {cap}"
        )
    assert used == 0, f"usage does not return to zero (ends at {used})"
