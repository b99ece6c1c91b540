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
        return cls(server=vector.server, estimation=vector)


class PluginScheduler(ABC):
    """Sorts candidate servers for a request.  Stateless unless documented."""

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
    #: O(log n) instead of re-sorting everything per election.
    rank_key = None

    #: Request-independent score inputs of one candidate, or ``None``.
    #:
    #: Policies whose :meth:`sort` orders by a total-order key that ends in
    #: the server name but depends on the request (so there is no
    #: ``rank_key``) override this and :attr:`rank` together:
    #: ``score_inputs(entry) -> row`` returns what the key needs from the
    #: estimation vector, and ``rank(request, rows) -> list[CandidateEntry]``
    #: returns the rows' entries sorted exactly as :meth:`sort` would.  One
    #: global sort then equals the per-level sort + aggregate walk, which
    #: lets :class:`~repro.middleware.ranking.FlatElection` keep each
    #: server's row between elections and re-read only the SeDs that changed.
    score_inputs = None

    #: Ranks :attr:`score_inputs` rows for a request, or ``None`` (see there).
    rank = None

    #: Vectorised metric over free single-core point-study servers, or ``None``.
    #:
    #: Policies that can score the lab point backend's candidate axis in
    #: one numpy expression override this with a method
    #: ``point_metric(request, *, flops, power) -> np.ndarray`` returning a
    #: per-candidate figure such that electing ``min(metric, server_name)``
    #: equals ``sort(request, candidates)[0]``.  Only valid for the point
    #: study's vector shape (every candidate free, waiting time zero, mean
    #: == idle == peak power, total == per-core FLOPS).
    point_metric = None

    @abstractmethod
    def sort(
        self, request: ServiceRequest, candidates: Sequence[CandidateEntry]
    ) -> list[CandidateEntry]:
        """Return ``candidates`` sorted best-first for ``request``.

        Implementations must not mutate the input sequence and must return
        a new list containing exactly the same entries (a permutation).
        """

    def aggregate(
        self,
        request: ServiceRequest,
        partial_rankings: Sequence[Sequence[CandidateEntry]],
    ) -> list[CandidateEntry]:
        """Merge the sorted lists coming from child agents.

        The default aggregation concatenates the children's candidates and
        re-sorts them with the same criterion, which mirrors DIET where the
        same plug-in runs at each agent of the hierarchy.
        """
        merged: list[CandidateEntry] = []
        for ranking in partial_rankings:
            merged.extend(ranking)
        return self.sort(request, merged)


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
