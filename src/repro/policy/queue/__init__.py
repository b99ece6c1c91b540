"""Queue-centric batch scheduling: FCFS, EASY, conservative backfill, DRF.

The building blocks:

- :mod:`repro.policy.queue.jobs` — the :class:`QueueJob` record and its
  converter from middleware tasks (:func:`jobs_from_tasks`).
- :mod:`repro.policy.queue.profile` — :class:`CoreProfile`, the
  piecewise-constant free-core step function backfill planning runs on.
- :mod:`repro.policy.queue.policies` — the four policies behind
  :func:`queue_policy_by_name`.
- :mod:`repro.policy.queue.simulator` — the deterministic event loop
  (:func:`run_queue_simulation`) plus the shared invariant validator
  (:func:`check_schedule`) the property harness drives.

>>> from repro.policy.queue import QUEUE_POLICY_NAMES
>>> QUEUE_POLICY_NAMES
('CONSERVATIVE', 'DRF', 'EASY', 'FCFS')
"""

from repro.policy.queue.jobs import QueueJob, jobs_from_tasks
from repro.policy.queue.policies import (
    QUEUE_POLICY_NAMES,
    PlanDecision,
    QueuePolicy,
    Reservation,
    RunningJob,
    SchedulerView,
    queue_policy_by_name,
)
from repro.policy.queue.profile import CoreProfile
from repro.policy.queue.simulator import (
    QueueSchedule,
    SimulationError,
    check_schedule,
    run_queue_simulation,
)

__all__ = [
    "QUEUE_POLICY_NAMES",
    "CoreProfile",
    "PlanDecision",
    "QueueJob",
    "QueuePolicy",
    "QueueSchedule",
    "Reservation",
    "RunningJob",
    "SchedulerView",
    "SimulationError",
    "check_schedule",
    "jobs_from_tasks",
    "queue_policy_by_name",
    "run_queue_simulation",
]
