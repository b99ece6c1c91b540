"""Resident, incrementally-maintained candidate ranking.

The scaling bottleneck of the middleware kernel is that every placement
election used to rebuild and re-sort the full per-server estimation list —
O(requests × servers) even though most node transitions move exactly one
server.  PR 6 made the per-SeD estimation vectors incremental (cached,
invalidated by node power listeners, queue mutation listeners and power
observations); this module makes the *order* incremental too.

:class:`ResidentRanking` keeps the candidate list sorted by the policy's
request-independent :meth:`~repro.middleware.plugin_scheduler.PluginScheduler.rank_key`
in an indexed structure (a binary-searchable sorted list of keys aligned
with the entries).  It subscribes to every SeD's invalidation listeners —
the same triggers that already invalidate the estimation cache — and only
marks the affected server dirty, an O(1) set insert per transition.  The
next election flushes the dirty set: each dirty server is removed from the
order (O(log n) locate) and re-inserted at its new position, then the
resident order is served as-is.  Since ``rank_key`` ends with the server
name the order is total, so the resident order is *identical* to a full
rebuild — the property-based suite (``tests/core/test_ranking_incremental.py``)
proves bit-for-bit equality under random transition streams, and the
golden figures pin it end to end.

The ranking serves exactly what
:meth:`~repro.middleware.agents.Agent.collect_candidates` would have
produced for a hierarchy whose agents all share one ``rank_key`` policy:
available servers only (OFF/BOOTING/FAILED nodes are dropped and re-appear
through their recovery transitions), filtered by ``can_solve``.
GREEN_SCORE's request-dependent score cannot stay resident, but its key
is still a total order, so :class:`FlatElection` scores each server once
per election instead of walking (custom estimation functions included).
Policies without a total-order key (RANDOM's per-request noise, FCFS, the
queue-family adapters), hierarchies whose agents do not share one policy
instance, and ``rank_key`` hierarchies with custom estimation functions
fall back to the tree walk — the ranking reports itself unusable rather
than guessing.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from repro.middleware.plugin_scheduler import CandidateEntry
from repro.middleware.sed import WILDCARD_SERVICE, ServerDaemon


class ResidentRanking:
    """A policy-sorted server order kept resident across requests."""

    def __init__(self, scheduler, seds: Sequence[ServerDaemon]) -> None:
        key_fn = getattr(scheduler, "rank_key", None)
        if key_fn is None:
            raise ValueError(
                f"policy {getattr(scheduler, 'name', scheduler)!r} has no "
                "request-independent rank_key; use the tree walk instead"
            )
        self._key_fn = key_fn
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
        #: Set when a SeD stops being cacheable (custom estimation function):
        #: the ranking can no longer trust its invalidation stream.
        self._unusable = False
        services = {sed.services for sed in seds}
        self._uniform_services: frozenset[str] | None = (
            next(iter(services)) if len(services) == 1 else None
        )
        self._solvable: dict[str, bool] = {}
        for sed in self._seds.values():
            sed.add_invalidation_listener(self._dirty.add)

    # -- invalidation ------------------------------------------------------------
    def detach(self) -> None:
        """Unsubscribe from every SeD (when the ranking is replaced)."""
        for sed in self._seds.values():
            sed.remove_invalidation_listener(self._dirty.add)

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
            old_key = key_of.pop(sed, None)
            if old_key is not None:
                index = bisect_left(keys, old_key)
                del keys[index]
                del entries[index]
            if not sed.estimation_cacheable:
                self._unusable = True
                continue
            vector = sed.estimate(request)
            if not vector.available:
                continue  # re-inserted by the recovery/boot transition
            entry = CandidateEntry.from_vector(vector)
            key = self._key_fn(entry)
            index = bisect_left(keys, key)
            keys.insert(index, key)
            entries.insert(index, entry)
            key_of[sed] = key
        dirty.clear()

    # -- queries -----------------------------------------------------------------------
    @property
    def usable(self) -> bool:
        """False once any SeD lost its default estimation function."""
        return not self._unusable

    def _solves(self, service: str) -> bool:
        cached = self._solvable.get(service)
        if cached is None:
            assert self._uniform_services is not None
            cached = (
                service in self._uniform_services
                or WILDCARD_SERVICE in self._uniform_services
            )
            self._solvable[service] = cached
        return cached

    def candidates(self, request) -> list[CandidateEntry] | None:
        """The ranked candidates for ``request``, or ``None`` when unusable.

        Returns the resident list itself on the uniform-services fast path;
        callers must treat it as read-only.
        """
        self.refresh(request)
        if self._unusable:
            return None
        if self._uniform_services is not None:
            if self._solves(request.service):
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
    """One scored pass over every SeD for a request-dependent total order.

    A policy whose ``sort`` key depends on the request (GREEN_SCORE's
    Equation 6 score) cannot keep an order resident, but when its key is a
    total order ending in the server name (``total_order``) and one
    instance sorts at every level, the walk's per-level sorts and
    re-scoring aggregates give the same permutation as one global sort.
    So each election collects the available, solvable candidates in the
    walk's depth-first SeD order (the same ``estimate`` call sequence) and
    sorts them once: each server is scored exactly once.
    """

    def __init__(self, scheduler, seds: Sequence[ServerDaemon]) -> None:
        self._scheduler = scheduler
        self._seds = tuple(seds)

    def detach(self) -> None:
        """Nothing to unsubscribe: the pass keeps no per-server state."""

    def candidates(self, request) -> list[CandidateEntry]:
        """The candidates for ``request``, sorted by one ``sort`` call."""
        service = request.service
        entries = []
        for sed in self._seds:
            if sed.can_solve(service):
                vector = sed.estimate(request)
                if vector.available:
                    entries.append(CandidateEntry.from_vector(vector))
        return self._scheduler.sort(request, entries)


__all__ = ["FlatElection", "ResidentRanking"]
