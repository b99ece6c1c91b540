"""Online face of the queue policy family: a plug-in scheduler adapter.

The queue policies of :mod:`repro.policy.queue` plan over a *queue* —
they decide **when** jobs start.  The middleware driver and the serving
daemon (:mod:`repro.serve`) are per-request: every arrival is placed
immediately on some SeD, so "when" degenerates and only the *election
among servers* remains.  :class:`QueuePlacementAdapter` is that honest
degeneration: it elects the server with the earliest estimated start
(a free core now beats any queue; shorter waiting queues beat longer
ones — exactly the backfill planner's objective applied to one job),
with a per-policy tie-break among equally-early servers:

========  ======================================================
policy    tie-break among equally-early servers
========  ======================================================
FCFS      neutral (server name) — pure earliest-start
EASY      best-fit: fewest free cores, keeping large holes open
          for wide jobs, the spirit of backfilling around a head
CONSERVATIVE  worst-fit: most free cores, spreading load so later
          reservations find room everywhere
DRF       fewest running tasks — the least-loaded server is the
          one-server analogue of the lowest dominant share
========  ======================================================

Batch semantics (reservations, fair-share over users) need the queue
backend of :class:`~repro.lab.session.LabSession`; this adapter exists
so the same policy *names* compose everywhere a plug-in scheduler does
— ``repro serve --policy EASY`` is a valid daemon.  Resolve it through
:func:`repro.core.policies.policy_by_name`, which dispatches queue
names here.

>>> QueuePlacementAdapter("easy").name
'EASY'
>>> QueuePlacementAdapter("nope")
Traceback (most recent call last):
    ...
ValueError: unknown queue policy 'nope' (expected one of: CONSERVATIVE, DRF, EASY, FCFS)
"""

from __future__ import annotations

from typing import Sequence

from repro.middleware.estimation import EstimationTags
from repro.middleware.plugin_scheduler import CandidateEntry, PluginScheduler
from repro.middleware.requests import ServiceRequest
from repro.policy.queue.policies import queue_policy_by_name

__all__ = ["QueuePlacementAdapter"]


def _estimated_start(entry: CandidateEntry) -> float:
    """Earliest estimated start on this server: 0 if a core is free."""
    if entry.estimation.get(EstimationTags.FREE_CORES, 0.0) > 0:
        return 0.0
    return entry.estimation.get(EstimationTags.WAITING_TIME, 0.0)


def _running_tasks(entry: CandidateEntry) -> float:
    total = entry.estimation.get(EstimationTags.TOTAL_CORES, 0.0)
    free = entry.estimation.get(EstimationTags.FREE_CORES, 0.0)
    return max(total - free, 0.0)


class QueuePlacementAdapter(PluginScheduler):
    """Earliest-estimated-start election with a queue-policy tie-break."""

    def __init__(self, policy: str) -> None:
        #: Validates the name and pins the canonical upper-case form.
        self.name = queue_policy_by_name(policy).name

    def _tie_break(self, entry: CandidateEntry) -> float:
        free = entry.estimation.get(EstimationTags.FREE_CORES, 0.0)
        if self.name == "EASY":
            return free  # best-fit: fewest free cores first
        if self.name == "CONSERVATIVE":
            return -free  # worst-fit: most free cores first
        if self.name == "DRF":
            return _running_tasks(entry)  # least-loaded first
        return 0.0  # FCFS: neutral

    def rank_key(self, entry: CandidateEntry) -> tuple:
        """Request-independent total-order key (estimated start, tie-break, name)."""
        return (_estimated_start(entry), self._tie_break(entry), entry.server)

    def sort(
        self, request: ServiceRequest, candidates: Sequence[CandidateEntry]
    ) -> list[CandidateEntry]:
        return sorted(candidates, key=self.rank_key)
