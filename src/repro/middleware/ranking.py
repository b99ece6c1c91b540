"""The Master Agent's election strategies, chosen once per topology version.

Every agent of the hierarchy sorts its candidates with the plug-in
scheduler and the Master Agent elects the head of the ranking
(Section III-A).  :func:`choose_election` picks how that ranking is
produced, once per topology version, among three strategies with one
surface — ``candidates(request)``, ``detach()``, the class flag
``resort_after_filter`` and the name ``path`` (what
:attr:`~repro.middleware.agents.MasterAgent.election_path` reports):

* :class:`ResidentRanking` keeps the candidate list sorted by the policy's
  request-independent
  :meth:`~repro.middleware.plugin_scheduler.PluginScheduler.rank_key` in a
  binary-searchable sorted key list aligned with the entries.  It
  subscribes to every SeD's invalidation listeners (the triggers that
  invalidate the estimation cache) and only marks the affected server
  dirty; the next election repositions each dirty server in O(log n) and
  serves the resident order as-is.
* :class:`FlatElection` keeps one row per SeD — the candidate entry and
  the request-independent inputs of the policy's key — re-reads only the
  SeDs the same listeners marked dirty, and ranks the rows once per
  election, so each server is scored once (GREEN_SCORE's
  request-dependent score, or any ``rank_key`` with custom estimation
  functions).
* :class:`TreeWalk` is the per-request walk of Section III-A itself.

The first two equal the walk because their key is a total order ending in
the server name and one policy instance sorts at every level: per-level
sorts plus aggregates then give the same permutation as one global sort.
``tests/core/test_ranking_incremental.py`` and
``tests/core/test_flat_election.py`` prove it bit for bit against the
walk under hypothesis-generated transition streams.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from repro.middleware.plugin_scheduler import CandidateEntry
from repro.middleware.sed import WILDCARD_SERVICE, ServerDaemon


class ResidentRanking:
    """A policy-sorted server order kept resident across requests.

    It serves what the walk would for a hierarchy whose agents all share
    one ``rank_key`` policy: available servers only (OFF/BOOTING/FAILED
    nodes re-appear through their recovery transitions), filtered by
    ``can_solve``.  Once a SeD installs a custom estimation function its
    vectors can change without a notification, so the ranking hands over
    to a :class:`FlatElection` for the rest of the topology version.
    """

    resort_after_filter = False

    def __init__(self, scheduler, seds: Sequence[ServerDaemon]) -> None:
        if scheduler.rank_key is None:
            raise ValueError(
                f"policy {scheduler.name!r} has no request-independent "
                "rank_key; use the tree walk instead"
            )
        self._scheduler = scheduler
        self._key_fn = scheduler.rank_key
        self._sed_order = tuple(seds)
        self._seds = {sed.name: sed for sed in seds}
        #: Sorted keys, aligned entry list, and each present SeD's key.
        self._keys: list[tuple] = []
        self._entries: list[CandidateEntry] = []
        self._key_of: dict[ServerDaemon, tuple] = {}
        #: SeDs whose vector moved since the last flush (all, initially).
        #: Its bound ``add`` is the invalidation listener itself, so a
        #: notification costs no Python frame; the set is only ever
        #: cleared, never rebound, so ``detach`` removes that same listener.
        self._dirty: set[ServerDaemon] = set(self._seds.values())
        #: The flat pass serving elections once a SeD stopped being cacheable.
        self._flat: FlatElection | None = None
        self._uniform_services = _uniform_services(seds)
        for sed in self._seds.values():
            sed.add_invalidation_listener(self._dirty.add)

    # -- invalidation ------------------------------------------------------------
    def detach(self) -> None:
        """Unsubscribe from every SeD (when the ranking is replaced).

        A ranking that handed over detaches its flat election too.
        """
        for sed in self._seds.values():
            sed.remove_invalidation_listener(self._dirty.add)
        if self._flat is not None:
            self._flat.detach()

    @property
    def path(self) -> str:
        """``"resident"``, or ``"flat"`` once the ranking has handed over."""
        return "resident" if self._flat is None else "flat"

    @property
    def dirty_servers(self) -> frozenset[str]:
        """Names of the servers queued for repositioning at the next flush."""
        return frozenset(sed.name for sed in self._dirty)

    # -- maintenance ---------------------------------------------------------------
    def refresh(self, request) -> None:
        """Reposition every dirty server; O(dirty × log n) key locates.

        ``request`` is forwarded to ``ServerDaemon.estimate`` for interface
        compatibility; cacheable SeDs never read it.
        """
        dirty = self._dirty
        if not dirty:
            return
        keys, entries, key_of = self._keys, self._entries, self._key_of
        for sed in dirty:
            if not sed.estimation_cacheable:
                break
            old_key = key_of.pop(sed, None)
            if old_key is not None:
                index = bisect_left(keys, old_key)
                del keys[index]
                del entries[index]
            vector = sed.estimate(request)
            if not vector.available:
                continue  # re-inserted by the recovery/boot transition
            entry = CandidateEntry.from_vector(vector)
            key = self._key_fn(entry)
            index = bisect_left(keys, key)
            keys.insert(index, key)
            entries.insert(index, entry)
            key_of[sed] = key
        else:
            dirty.clear()
            return
        self.detach()
        dirty.clear()
        self._flat = FlatElection(self._scheduler, self._sed_order)

    # -- queries -----------------------------------------------------------------------
    def candidates(self, request) -> list[CandidateEntry]:
        """The ranked candidates for ``request``.

        Returns the resident list itself on the uniform-services fast path;
        callers must treat it as read-only.
        """
        self.refresh(request)
        if self._flat is not None:
            return self._flat.candidates(request)
        services = self._uniform_services
        if services is not None:
            if request.service in services or WILDCARD_SERVICE in services:
                return self._entries
            return []
        seds = self._seds
        return [
            entry
            for entry in self._entries
            if seds[entry.server].can_solve(request.service)
        ]

    def insort_check(self) -> bool:  # pragma: no cover - debugging helper
        """Whether the resident key list is currently sorted (invariant check)."""
        keys = self._keys
        return all(keys[i] <= keys[i + 1] for i in range(len(keys) - 1))


class FlatElection:
    """One sort per election over rows kept resident per SeD.

    Used for a total-order key the ranking cannot keep resident: one that
    depends on the request (GREEN_SCORE's Equation 6 score, served by the
    policy's ``score_inputs``/``rank`` hooks) or a ``rank_key`` over custom
    estimation functions (whose rows are the entries, ranked by ``sort``).
    Each SeD's row holds its candidate entry and the request-independent
    inputs of the key.  Like :class:`ResidentRanking` it subscribes to every
    SeD's invalidation listeners and re-estimates only the dirty SeDs; a
    SeD with a custom estimation function is re-estimated every election,
    in the walk's depth-first order, so its ``estimate`` call sequence is
    the walk's.  Each election ranks the available, solvable rows once:
    each server is scored exactly once.
    """

    resort_after_filter = False
    path = "flat"

    def __init__(self, scheduler, seds: Sequence[ServerDaemon]) -> None:
        self._make_row = scheduler.score_inputs or _entry_row
        self._rank = scheduler.rank or scheduler.sort
        #: Each SeD's row in the walk's depth-first order (updating a key
        #: keeps its place); ``None`` while the SeD is unavailable.
        self._rows: dict[ServerDaemon, object] = dict.fromkeys(seds)
        #: The SeDs with custom estimation functions, in the same order.
        self._custom: tuple[ServerDaemon, ...] = ()
        #: Same bound-``add`` listener discipline as :class:`ResidentRanking`.
        self._dirty: set[ServerDaemon] = set(self._rows)
        self._uniform_services = _uniform_services(self._rows)
        for sed in self._rows:
            sed.add_invalidation_listener(self._dirty.add)

    def detach(self) -> None:
        """Unsubscribe from every SeD (when the election is replaced)."""
        for sed in self._rows:
            sed.remove_invalidation_listener(self._dirty.add)

    def _row(self, sed: ServerDaemon, request):
        vector = sed.estimate(request)
        return self._make_row(CandidateEntry.from_vector(vector)) if vector.available else None

    def candidates(self, request) -> list[CandidateEntry]:
        """The candidates for ``request``, ranked by one ``rank`` call."""
        rows, dirty = self._rows, self._dirty
        if dirty:
            for sed in dirty:
                if sed.estimation_cacheable:
                    rows[sed] = self._row(sed, request)
            if not all(sed.estimation_cacheable for sed in dirty):
                self._custom = tuple(sed for sed in rows if not sed.estimation_cacheable)
            dirty.clear()
        service = request.service
        for sed in self._custom:
            if sed.can_solve(service):
                rows[sed] = self._row(sed, request)
        services = self._uniform_services
        if services is None:
            present = [
                row
                for sed, row in rows.items()
                if row is not None and sed.can_solve(service)
            ]
        elif service in services or WILDCARD_SERVICE in services:
            present = [row for row in rows.values() if row is not None]
        else:
            present = []
        return self._rank(request, present)


def _entry_row(entry: CandidateEntry) -> CandidateEntry:
    """A ``rank_key`` policy's row: the entry itself, ranked by ``sort``."""
    return entry


def _uniform_services(seds) -> frozenset[str] | None:
    """The one service set every SeD offers, or ``None`` if they differ."""
    services = {sed.services for sed in seds}
    return next(iter(services)) if len(services) == 1 else None


class TreeWalk:
    """The per-request hierarchy walk: propagate, collect, sort per level.

    It serves RANDOM (its noise is drawn per level), policies without a
    total-order key and hierarchies whose agents do not share one policy
    instance.  Its output need not be in the Master Agent's order (RANDOM
    draws fresh noise, a mixed hierarchy ends in a child's order), so the
    Master Agent re-sorts it after the candidate filter.
    """

    resort_after_filter = True
    path = "walk"

    def __init__(self, master) -> None:
        self._master = master

    def detach(self) -> None:
        """Nothing to unsubscribe: the walk keeps no per-server state."""

    def candidates(self, request) -> list[CandidateEntry]:
        """The Master Agent's ``collect_candidates`` for ``request``."""
        return self._master.collect_candidates(request)


def _schedulers(agent):
    yield agent.scheduler
    for child in agent.child_agents:
        yield from _schedulers(child)


def choose_election(master) -> ResidentRanking | FlatElection | TreeWalk:
    """The election strategy for ``master``'s current topology, by these rules:

    1. agents that do not all share one scheduler instance walk the tree
       (per-level policies may rank differently);
    2. a ``rank_key`` policy whose SeDs all use the default estimation
       function gets a :class:`ResidentRanking`;
    3. any other ``rank_key`` policy, or one with ``score_inputs`` and
       ``rank`` (GREEN_SCORE), gets a :class:`FlatElection`;
    4. anything else (RANDOM, FCFS, the budget-aware scheduler) walks.

    Each strategy names itself in ``path``; on a three-SeD hierarchy:

    >>> from repro.core.policies import policy_by_name
    >>> from repro.infrastructure.platform import grid5000_placement_platform
    >>> from repro.middleware.hierarchy import build_hierarchy
    >>> def path(policy):
    ...     platform = grid5000_placement_platform(nodes_per_cluster=1)
    ...     master, seds = build_hierarchy(platform, scheduler=policy_by_name(policy))
    ...     election = choose_election(master)
    ...     election.detach()
    ...     return len(seds), election.path
    >>> [path(name) for name in ("POWER", "GREEN_SCORE", "RANDOM")]
    [(3, 'resident'), (3, 'flat'), (3, 'walk')]
    """
    scheduler = master.scheduler
    if any(other is not scheduler for other in _schedulers(master)):
        return TreeWalk(master)
    seds = master.all_seds()
    if scheduler.rank_key is not None and all(sed.estimation_cacheable for sed in seds):
        return ResidentRanking(scheduler, seds)
    if scheduler.rank_key is not None or scheduler.rank is not None:
        return FlatElection(scheduler, seds)
    return TreeWalk(master)


__all__ = ["FlatElection", "ResidentRanking", "TreeWalk", "choose_election"]
