"""Plug-in scheduler interface.

DIET lets "applications [be] given a degree of control over the scheduling
subsystem using plug-in schedulers (available in each agent) that use
information gathered from resources via estimation functions"
(Section II-A).  A plug-in scheduler receives the candidate estimation
vectors collected at one level of the hierarchy and returns them sorted,
best candidate first.  Each agent applies the same plug-in, so the Master
Agent ends up with a globally sorted list from which the first SeD is
elected.

The paper's policies are implemented in :mod:`repro.core.policies` as
subclasses of :class:`PluginScheduler`:
:class:`~repro.core.policies.PowerPolicy` (POWER),
:class:`~repro.core.policies.PerformancePolicy` (PERFORMANCE),
:class:`~repro.core.policies.RandomPolicy` (RANDOM),
:class:`~repro.core.policies.GreenPerfPolicy` (GREENPERF) and the
score-based :class:`~repro.core.policies.GreenSchedulerPolicy`
(GREEN_SCORE); resolve them by name with
:func:`~repro.core.policies.policy_by_name`.  These references are
verified by ``tools/check_doc_links.py`` in CI, so they cannot go stale
when policies move.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple, Sequence

from repro.middleware.estimation import EstimationVector
from repro.middleware.requests import ServiceRequest


class CandidateEntry(NamedTuple):
    """One candidate at one hierarchy level: the SeD name and its estimation."""

    server: str
    estimation: EstimationVector

    @classmethod
    def from_vector(cls, vector: EstimationVector) -> "CandidateEntry":
        """Wrap an estimation vector."""
        return cls(vector.server, vector)


class PluginScheduler(ABC):
    """Sorts candidate servers for a request.  Stateless unless documented.

    A policy with a :attr:`rank_key` sorts by exactly that key, so the
    key alone fixes its order — POWER, for instance, puts free servers
    first, then the lowest power, then the server name:

    >>> from repro.core.policies import PowerPolicy
    >>> from repro.middleware.estimation import EstimationTags
    >>> from repro.simulation.task import Task
    >>> def entry(name, power, free_cores):
    ...     return CandidateEntry.from_vector(EstimationVector(name, "x", {
    ...         EstimationTags.MEAN_POWER: power,
    ...         EstimationTags.FREE_CORES: free_cores,
    ...     }))
    >>> c = [entry("x-2", 90.0, 1.0), entry("x-10", 90.0, 1.0),
    ...      entry("x-0", 50.0, 0.0), entry("x-1", 120.0, 1.0)]
    >>> p, r = PowerPolicy(), ServiceRequest.from_task(Task())
    >>> sorted(c, key=p.rank_key) == p.sort(r, c)
    True
    >>> [e.server for e in p.sort(r, c)]
    ['x-10', 'x-2', 'x-1', 'x-0']
    """

    #: Human-readable policy name used in reports (Table II column headers).
    name: str = "plugin"

    #: Request-independent total-order sort key, or ``None``.
    #:
    #: Policies whose ranking depends only on the estimation vector (not on
    #: the request or on private mutable state) override this with a method
    #: ``rank_key(entry: CandidateEntry) -> tuple`` returning exactly the
    #: key their :meth:`sort` uses.  The key must end with ``entry.server``
    #: so the order is total; then sorting candidates by ``rank_key`` —
    #: level by level or globally — always yields the same permutation,
    #: which lets :class:`~repro.middleware.ranking.ResidentRanking` keep
    #: the order resident across requests and reposition single servers in
    #: O(log n) instead of re-sorting everything per election.  The lab's
    #: point backend (:class:`~repro.lab.session.LabSession`) relies on it
    #: too: it sorts its static fleet by the key once and elects the first
    #: free server in that order.
    rank_key = None

    #: Request-independent score inputs of one candidate, or ``None``.
    #:
    #: Policies whose :meth:`sort` orders by a total-order key that ends in
    #: the server name but depends on the request (so there is no
    #: ``rank_key``) override this and :attr:`score_keys` together:
    #: ``score_inputs(entry) -> row`` returns what the key needs from the
    #: estimation vector, and ``score_keys(request, rows)`` returns one
    #: ``(score, server, position)`` key per row, in row order, where
    #: ``position`` is the row's index.  The keys are a total order, so
    #: sorting them is :meth:`sort` and their ``min`` is its head; one
    #: global sort equals the per-level sort + merge walk.  That lets
    #: :class:`~repro.middleware.ranking.FlatElection` keep each server's
    #: row between elections, re-read only the SeDs that changed and elect
    #: by ``min`` without ranking.  The lab's point backend relies on it
    #: too: it builds each static server's row once and elects the ``min``
    #: key over the free servers' rows.
    score_inputs = None

    #: Keys :attr:`score_inputs` rows for a request, or ``None`` (see there).
    score_keys = None

    @abstractmethod
    def sort(
        self, request: ServiceRequest, candidates: Sequence[CandidateEntry]
    ) -> list[CandidateEntry]:
        """Return ``candidates`` sorted best-first for ``request``.

        Implementations must not mutate the input sequence and must return
        a new list containing exactly the same entries (a permutation).
        """


class FirstComeFirstServedScheduler(PluginScheduler):
    """Keeps candidates in collection order.

    This mirrors DIET's default behaviour when no plug-in is installed and
    serves as a neutral baseline in tests: whatever order the hierarchy
    produced is preserved.
    """

    name = "fcfs"

    def sort(
        self, request: ServiceRequest, candidates: Sequence[CandidateEntry]
    ) -> list[CandidateEntry]:
        return list(candidates)
