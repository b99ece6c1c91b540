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

from repro import lazy_exports

#: Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "QUEUE_POLICY_NAMES": "repro.policy.queue.policies",
    "CoreProfile": "repro.policy.queue.profile",
    "PlanDecision": "repro.policy.queue.policies",
    "QueueJob": "repro.policy.queue.jobs",
    "QueuePolicy": "repro.policy.queue.policies",
    "QueueSchedule": "repro.policy.queue.simulator",
    "Reservation": "repro.policy.queue.policies",
    "RunningJob": "repro.policy.queue.policies",
    "SchedulerView": "repro.policy.queue.policies",
    "SimulationError": "repro.policy.queue.simulator",
    "check_schedule": "repro.policy.queue.simulator",
    "jobs_from_tasks": "repro.policy.queue.jobs",
    "queue_policy_by_name": "repro.policy.queue.policies",
    "run_queue_simulation": "repro.policy.queue.simulator",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
