"""The queue-family scheduling policies: FCFS, EASY, conservative, DRF.

Each policy is a pure planning function: given a :class:`SchedulerView`
(current time, capacity, running jobs with estimated ends, the queue in
arrival order), :meth:`QueuePolicy.plan` returns a :class:`PlanDecision`
— which queued jobs start *now*, plus any forward :class:`Reservation`
records the policy committed to.  Policies never mutate simulator
state, which is what keeps the event loop deterministic and lets the
invariant harness replay identical views against all four policies.

Planning always uses :attr:`~repro.policy.queue.jobs.QueueJob.estimate`
(the requested wall limit), never the true runtime — estimates are
upper bounds on execution (`effective_runtime <= estimate`), which is
exactly the property the EASY reservation guarantee needs.

>>> from repro.policy.queue.jobs import QueueJob
>>> view = SchedulerView(
...     now=0.0, capacity=4, free_cores=4, running=(),
...     queue=(QueueJob(0, 0.0, 3, 10.0), QueueJob(1, 0.0, 4, 10.0),
...            QueueJob(2, 0.0, 1, 5.0)),
... )
>>> queue_policy_by_name("fcfs").plan(view).start_now  # head-blocked at job 1
[0]
>>> decision = queue_policy_by_name("easy").plan(view)
>>> decision.start_now        # job 2 backfills into job 1's shadow window
[0, 2]
>>> decision.reservations[0].start  # job 1 promised the t=10 slot
10.0
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.policy.queue.jobs import QueueJob
from repro.policy.queue.profile import CoreProfile

__all__ = [
    "QUEUE_POLICY_NAMES",
    "PlanDecision",
    "QueuePolicy",
    "Reservation",
    "RunningJob",
    "SchedulerView",
    "queue_policy_by_name",
]


@dataclass(frozen=True, slots=True)
class RunningJob:
    """A job currently executing, as the planner sees it.

    ``estimated_end`` is ``start + estimate`` — the latest instant the
    job can still hold its cores, since execution is clipped at the
    wall limit.
    """

    job_id: int
    cores: int
    start: float
    estimated_end: float
    user: str = "u0"


@dataclass(frozen=True, slots=True)
class Reservation:
    """A forward commitment: ``cores`` held over ``[start, end)`` for a job."""

    job_id: int
    start: float
    end: float
    cores: int


@dataclass(frozen=True, slots=True)
class SchedulerView:
    """Immutable snapshot handed to :meth:`QueuePolicy.plan`.

    ``queue`` is in queue order — ascending ``(arrival, job_id)`` — and
    ``free_cores`` always equals ``capacity`` minus the running widths.
    """

    now: float
    capacity: int
    free_cores: int
    running: tuple[RunningJob, ...]
    queue: tuple[QueueJob, ...]


@dataclass(slots=True)
class PlanDecision:
    """What a planning pass decided: immediate starts + forward promises."""

    start_now: list[int] = field(default_factory=list)
    reservations: list[Reservation] = field(default_factory=list)


def _profile_from_view(view: SchedulerView) -> CoreProfile:
    """Free-core profile from ``now`` onward, given running estimated ends."""
    profile = CoreProfile(view.capacity, origin=view.now)
    for running in view.running:
        profile.reserve(
            view.now, cores=running.cores, duration=running.estimated_end - view.now
        )
    return profile


class QueuePolicy(abc.ABC):
    """A queue-ordering/backfill policy; subclasses define :meth:`plan`."""

    #: Canonical upper-case policy name (``"FCFS"``, ``"EASY"``, ...).
    name: str = ""

    @abc.abstractmethod
    def plan(self, view: SchedulerView) -> PlanDecision:
        """Decide immediate starts (and reservations) for this instant."""


class FCFSPolicy(QueuePolicy):
    """First-come-first-served with strict head blocking.

    Jobs start in queue order; the first job that does not fit blocks
    everything behind it, no matter how much capacity sits idle.  This
    is the baseline every backfill policy is measured against.
    """

    name = "FCFS"

    def plan(self, view: SchedulerView) -> PlanDecision:
        decision = PlanDecision()
        free = view.free_cores
        for job in view.queue:
            if job.cores > free:
                break
            decision.start_now.append(job.job_id)
            free -= job.cores
        return decision


class EasyBackfillPolicy(QueuePolicy):
    """EASY (aggressive) backfill: one reservation, for the queue head.

    Jobs start in order until the first that does not fit; that head
    gets a reservation at its *shadow time* (earliest start given
    running estimated ends).  Jobs behind the head may start now only
    if they fit the free cores **and** do not collide with the head's
    reservation.  Because estimates upper-bound execution, the head is
    never delayed past its promised shadow time.
    """

    name = "EASY"

    def plan(self, view: SchedulerView) -> PlanDecision:
        decision = PlanDecision()
        free = view.free_cores
        profile = _profile_from_view(view)
        blocked = None
        for position, job in enumerate(view.queue):
            if job.cores > free:
                blocked = position
                break
            decision.start_now.append(job.job_id)
            free -= job.cores
            profile.reserve(view.now, cores=job.cores, duration=job.estimate)
        if blocked is None:
            return decision
        head = view.queue[blocked]
        shadow = profile.earliest_start(
            cores=head.cores, duration=head.estimate, not_before=view.now
        )
        if shadow is not None:
            profile.reserve(shadow, cores=head.cores, duration=head.estimate)
            decision.reservations.append(
                Reservation(head.job_id, shadow, shadow + head.estimate, head.cores)
            )
        for job in view.queue[blocked + 1 :]:
            if job.cores > free:
                continue
            start = profile.earliest_start(
                cores=job.cores, duration=job.estimate, not_before=view.now
            )
            if start != view.now:
                continue
            decision.start_now.append(job.job_id)
            free -= job.cores
            profile.reserve(view.now, cores=job.cores, duration=job.estimate)
        return decision


class ConservativeBackfillPolicy(QueuePolicy):
    """Conservative backfill: every queued job holds a reservation.

    Walking the queue in order, each job is reserved the earliest slot
    that fits around running jobs *and all earlier reservations*; a job
    whose slot is "now" starts immediately.  No job is ever delayed by
    a backfill decision made after it queued — the strongest fairness
    guarantee in the family, usually at some utilisation cost vs EASY.
    """

    name = "CONSERVATIVE"

    def plan(self, view: SchedulerView) -> PlanDecision:
        decision = PlanDecision()
        profile = _profile_from_view(view)
        for job in view.queue:
            start = profile.earliest_start(
                cores=job.cores, duration=job.estimate, not_before=view.now
            )
            if start is None:
                continue
            profile.reserve(start, cores=job.cores, duration=job.estimate)
            decision.reservations.append(
                Reservation(job.job_id, start, start + job.estimate, job.cores)
            )
            if start == view.now:
                decision.start_now.append(job.job_id)
        return decision


class DRFPolicy(QueuePolicy):
    """Dominant-resource-fairness ordering across users.

    Cores are the one resource, so each user's *dominant share* is their
    core share of the system over currently running work: max-min fair
    share over cores.  Repeatedly, the fittable job of the
    lowest-share user starts next (ties: earliest arrival, then job id),
    updating shares as it goes.  No reservations
    and no head blocking: a job that does not fit is skipped, so DRF
    trades FCFS's ordering guarantee for fairness across tenants.
    """

    name = "DRF"

    def plan(self, view: SchedulerView) -> PlanDecision:
        decision = PlanDecision()
        usage: dict[str, float] = {}
        for running in view.running:
            usage[running.user] = usage.get(running.user, 0.0) + running.cores

        def dominant_share(user: str) -> float:
            return usage.get(user, 0.0) / view.capacity if view.capacity else 0.0

        free = view.free_cores
        pending = list(view.queue)
        while True:
            fittable = [job for job in pending if job.cores <= free]
            if not fittable:
                return decision
            job = min(
                fittable,
                key=lambda j: (dominant_share(j.user), j.arrival, j.job_id),
            )
            decision.start_now.append(job.job_id)
            free -= job.cores
            usage[job.user] = usage.get(job.user, 0.0) + job.cores
            pending.remove(job)


_QUEUE_POLICIES: dict[str, type[QueuePolicy]] = {
    policy.name: policy
    for policy in (ConservativeBackfillPolicy, DRFPolicy, EasyBackfillPolicy, FCFSPolicy)
}

#: Canonical queue-policy names, sorted.
QUEUE_POLICY_NAMES: tuple[str, ...] = tuple(sorted(_QUEUE_POLICIES))


def queue_policy_by_name(name: str) -> QueuePolicy:
    """Instantiate a queue policy by (case-insensitive) name.

    >>> queue_policy_by_name("easy").name
    'EASY'
    >>> queue_policy_by_name("nope")
    Traceback (most recent call last):
        ...
    ValueError: unknown queue policy 'nope' (expected one of: CONSERVATIVE, DRF, EASY, FCFS)
    """
    key = name.strip().upper()
    if key not in _QUEUE_POLICIES:
        known = ", ".join(QUEUE_POLICY_NAMES)
        raise ValueError(f"unknown queue policy {name!r} (expected one of: {known})")
    return _QUEUE_POLICIES[key]()
