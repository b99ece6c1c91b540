"""The Master Agent's election strategies, chosen once per hierarchy.

Every agent of the hierarchy sorts its candidates with the Master Agent's
plug-in scheduler and the Master Agent elects the head of the ranking
(Section III-A).  :func:`choose_election` picks how that head is found,
once, at the first election (the topology is frozen from then on), among
three strategies with one surface — ``elect(request, allowed=None)`` (the
winner, or ``None``), ``candidates(request)`` (the full ranking) and
``refresh(request)``.  ``allowed`` is the Master Agent's candidate set:
the winner is the best-ranked server it names, or the best-ranked server
when it names none of the candidates.

All three keep one :class:`RowStore`: a row per SeD, kept between
elections in the walk's depth-first order.  The store subscribes to every
SeD's invalidation listeners (the triggers that invalidate the estimation
cache) and only marks the affected server dirty; ``refresh`` re-estimates
the dirty SeDs, and each election then re-reads every SeD with a custom
estimation function (whose vector may move with no notification), in the
walk's order so their ``estimate`` calls are the walk's.  Estimation
functions are fixed when a SeD is built, so the set of such SeDs is fixed
for a strategy's life.

* :class:`ResidentRanking` keeps the candidate list sorted by the policy's
  request-independent
  :meth:`~repro.middleware.plugin_scheduler.PluginScheduler.rank_key` in a
  binary-searchable sorted key list aligned with the entries; each dirty
  server is repositioned in O(log n).
* :class:`FlatElection` orders the rows by one total-order key per
  election: GREEN_SCORE's request-dependent ``score_keys`` (each distinct
  server state scored once), or a ``rank_key`` over custom estimation
  functions.  ``elect`` takes the ``min`` of those keys and
  ``candidates`` sorts them.
* :class:`WalkReplay` replays the walk's per-level ``sort`` calls over the
  rows, for every other policy (RANDOM draws its noise per call, so every
  call counts).

``elect`` is the first allowed entry of ``candidates`` everywhere but in
:class:`FlatElection` without a candidate set, the one case where
electing costs less than ranking, and in :class:`WalkReplay` with one,
where the Master Agent re-sorts the allowed entries as the walk does.

The per-request walk of Section III-A itself
(:meth:`~repro.middleware.agents.Agent.collect_candidates`) is the
reference they are proven equal to.  The first two equal the walk because
their key is a total order ending in the server name and one policy
instance sorts at every level: per-level sorts plus aggregates then give
the same permutation as one global sort, whose head is the key's minimum.
The replay equals it because it makes the same ``sort`` calls on the same
lists.
``tests/core/test_ranking_incremental.py``,
``tests/core/test_flat_election.py`` and
``tests/core/test_walk_replay.py`` prove it bit for bit against the walk
under hypothesis-generated transition streams,
``tests/core/test_elect.py`` proves each ``elect`` equal to the head of
its ``candidates``, and ``tests/core/test_candidate_set.py`` proves it
equal to "keep the allowed, fall back, re-sort for the replay" under a
candidate set.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Sequence

from repro.middleware.plugin_scheduler import CandidateEntry
from repro.middleware.sed import WILDCARD_SERVICE, ServerDaemon, default_estimation_function


class RowStore:
    """One row per SeD kept between elections, in the walk's depth-first order.

    ``make_row(entry)`` turns an available SeD's candidate entry into its
    row; an unavailable SeD's row is ``None`` (OFF/BOOTING/FAILED nodes
    re-appear through their recovery transitions).  The SeDs with custom
    estimation functions are fixed when the store is built, as their
    functions are.
    """

    def __init__(self, seds: Sequence[ServerDaemon], make_row) -> None:
        self._make_row = make_row
        #: Each SeD's row in the walk's depth-first order (updating a row
        #: keeps its place); ``None`` while the SeD is unavailable.
        self._rows: dict[ServerDaemon, object] = dict.fromkeys(seds)
        #: The SeDs with custom estimation functions, in the same order.
        self._custom = tuple(sed for sed in self._rows if not sed.estimation_cacheable)
        #: SeDs whose vector moved since the last election (all, initially).
        #: Its bound ``add`` is the invalidation listener itself, so a
        #: notification costs no Python frame; the set is only ever
        #: cleared, never rebound.
        self._dirty: set[ServerDaemon] = set(self._rows)
        self._uniform_services = _uniform_services(self._rows)
        for sed in self._rows:
            sed.add_invalidation_listener(self._dirty.add)

    @property
    def dirty_servers(self) -> frozenset[str]:
        """Names of the servers queued for re-estimation at the next election."""
        return frozenset(sed.name for sed in self._dirty)

    def _row(self, sed: ServerDaemon, request):
        vector = sed.estimate(request)
        return self._make_row(CandidateEntry.from_vector(vector)) if vector.available else None

    def _set_row(self, sed: ServerDaemon, row) -> None:
        """Store ``sed``'s new row (a store that indexes its rows extends this)."""
        self._rows[sed] = row

    def refresh(self, request) -> None:
        """Re-read the dirty SeDs (a no-op when none moved since the last call)."""
        dirty = self._dirty
        if dirty:
            set_row = self._set_row
            for sed in dirty:
                if sed.estimation_cacheable:
                    set_row(sed, self._row(sed, request))
            dirty.clear()

    def _update(self, request) -> None:
        """:meth:`refresh`, then re-read the custom SeDs in walk order.

        Runs once per election: a custom estimation function is called
        exactly as often as under the walk.
        """
        self.refresh(request)
        service = request.service
        for sed in self._custom:
            if sed.can_solve(service):
                self._set_row(sed, self._row(sed, request))

    def elect(self, request, allowed=None) -> CandidateEntry | None:
        """The winner for ``request``, or ``None`` when no server can serve it.

        The winner is the first entry of :meth:`candidates` whose server
        is in ``allowed``, or the head when none is (or ``allowed`` is
        ``None``): a candidate set never leaves a request unservable.
        """
        ranking = self.candidates(request)
        if allowed is not None:
            for entry in ranking:
                if entry.server in allowed:
                    return entry
        return ranking[0] if ranking else None

    def _solved_by_all(self, service: str) -> bool | None:
        """The uniform-services filter: does every SeD solve ``service``?

        ``True`` if all do, ``False`` if none does, ``None`` when their
        services differ and each SeD must be asked.
        """
        services = self._uniform_services
        if services is None:
            return None
        return service in services or WILDCARD_SERVICE in services

    def check(self) -> None:
        """Raise :class:`AssertionError` unless the store is consistent.

        Meant right after an election: the dirty set is empty and every
        SeD with the default estimation function has the row of a freshly
        computed vector.
        """
        if self._dirty:
            raise AssertionError(f"dirty after an election: {sorted(self.dirty_servers)}")
        for sed, row in self._rows.items():
            if sed.estimation_cacheable:
                vector = default_estimation_function(sed, None)
                fresh = (
                    self._make_row(CandidateEntry.from_vector(vector))
                    if vector.available
                    else None
                )
                if row != fresh:
                    raise AssertionError(f"stale row for {sed.name!r}")


class ResidentRanking(RowStore):
    """A policy-sorted server order kept resident across requests.

    It serves what the walk would for a hierarchy whose agents all share
    one ``rank_key`` policy over SeDs that all use the default estimation
    function: available servers only, filtered by ``can_solve``.  Each row
    is the SeD's key; the sorted keys and the entries are aligned lists.
    """

    def __init__(self, scheduler, seds: Sequence[ServerDaemon]) -> None:
        if scheduler.rank_key is None:
            raise ValueError(
                f"policy {scheduler.name!r} has no request-independent "
                "rank_key; use the tree walk instead"
            )
        if not all(sed.estimation_cacheable for sed in seds):
            raise ValueError(
                "a custom estimation function can move a key without a "
                "notification; use a FlatElection instead"
            )
        super().__init__(seds, scheduler.rank_key)
        self._seds = {sed.name: sed for sed in self._rows}
        #: Sorted keys and the aligned entry list.
        self._keys: list[tuple] = []
        self._entries: list[CandidateEntry] = []

    def refresh(self, request) -> None:
        """Reposition every dirty server; O(dirty × log n) key locates.

        ``request`` is forwarded to ``ServerDaemon.estimate`` for interface
        compatibility; cacheable SeDs never read it.
        """
        dirty = self._dirty
        if not dirty:
            return
        keys, entries, rows, key_fn = self._keys, self._entries, self._rows, self._make_row
        for sed in dirty:
            old_key = rows[sed]
            if old_key is not None:
                index = bisect_left(keys, old_key)
                del keys[index]
                del entries[index]
            vector = sed.estimate(request)
            if not vector.available:
                rows[sed] = None  # re-inserted by the recovery/boot transition
                continue
            entry = CandidateEntry.from_vector(vector)
            key = rows[sed] = key_fn(entry)
            index = bisect_left(keys, key)
            keys.insert(index, key)
            entries.insert(index, entry)
        dirty.clear()

    def candidates(self, request) -> list[CandidateEntry]:
        """The ranked candidates for ``request``.

        Returns the resident list itself on the uniform-services fast path;
        callers must treat it as read-only.
        """
        self.refresh(request)
        service = request.service
        solved = self._solved_by_all(service)
        if solved is not None:
            return self._entries if solved else []
        seds = self._seds
        return [entry for entry in self._entries if seds[entry.server].can_solve(service)]

    def check(self) -> None:
        """:meth:`RowStore.check`, plus: the keys are sorted and match the rows."""
        super().check()
        keys = self._keys
        if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
            raise AssertionError("resident keys out of order")
        present = sorted(key for key in self._rows.values() if key is not None)
        if keys != present or [self._make_row(entry) for entry in self._entries] != keys:
            raise AssertionError("resident keys do not match the rows and entries")


class FlatElection(RowStore):
    """One total-order key per server and election: ``min`` elects, ``sorted`` ranks.

    Used for a key the ranking cannot keep resident.  GREEN_SCORE's
    Equation 6 score depends on the request: each row holds the policy's
    request-independent ``score_inputs``, and its ``score_keys`` scores
    each distinct server state once per election.  Servers of one type in
    one state share their inputs, so the store also groups the available
    servers by inputs, each group sorted by (server, walk position):
    ``elect`` scores one head per group and takes the least key, which is
    the least key over all rows.  It keys every row instead (which raises
    the same error at the same row as ``candidates``) when the SeDs'
    services differ, a row's inputs failed the fast-path checks, or a
    group's score raises.  A ``rank_key`` over custom estimation
    functions moves without a notification: each row is the entry itself,
    keyed by ``rank_key``.
    """

    def __init__(self, scheduler, seds: Sequence[ServerDaemon]) -> None:
        self._rank_key = scheduler.rank_key
        self._score_keys = scheduler.score_keys
        make_row = _entry_row if self._rank_key is not None else scheduler.score_inputs
        super().__init__(seds, make_row)
        #: Score inputs -> ``(server, walk position, entry)`` of every
        #: available SeD holding them, sorted; and the count of available
        #: rows whose inputs are ``None`` (both unused under a ``rank_key``).
        self._groups: dict[tuple, list[tuple]] = {}
        self._unscorable = 0
        self._position = {sed: position for position, sed in enumerate(self._rows)}

    def _set_row(self, sed: ServerDaemon, row) -> None:
        """Store the row and move the SeD between the input groups."""
        if self._rank_key is not None:
            self._rows[sed] = row
            return
        old = self._rows[sed]
        if old is not None:
            if old[1] is None:
                self._unscorable -= 1
            else:
                members = self._groups[old[1]]
                del members[bisect_left(members, (old[0].server, self._position[sed]))]
                if not members:
                    del self._groups[old[1]]
        self._rows[sed] = row
        if row is not None:
            if row[1] is None:
                self._unscorable += 1
            else:
                members = self._groups.setdefault(row[1], [])
                insort(members, (row[0].server, self._position[sed], row[0]))

    def candidates(self, request) -> list[CandidateEntry]:
        """The candidates for ``request``, sorted by the key."""
        self._update(request)
        rows = self._present(request.service)
        if self._rank_key is not None:
            return sorted(rows, key=self._rank_key)
        return [rows[key[-1]][0] for key in sorted(self._score_keys(request, rows))]

    def elect(self, request, allowed=None) -> CandidateEntry | None:
        """The candidate with the least key, or ``None``.

        With a candidate set the ranking is needed:
        :meth:`RowStore.elect` scans it.
        """
        if allowed is not None:
            return super().elect(request, allowed)
        self._update(request)
        if self._rank_key is None and not self._unscorable and self._solved_by_all(
            request.service
        ):
            heads = [(members[0], inputs) for inputs, members in self._groups.items()]
            try:
                keys = self._score_keys(request, [(head[2], inputs) for head, inputs in heads])
            except (TypeError, ValueError):
                pass  # key every row: the first bad one in walk order raises
            else:
                if not keys:
                    return None
                # (score, server, walk position): the least over every row.
                best = min((score, server, heads[i][0][1], i) for score, server, i in keys)
                return heads[best[-1]][0][2]
        rows = self._present(request.service)
        if not rows:
            return None
        if self._rank_key is not None:
            return min(rows, key=self._rank_key)
        return rows[min(self._score_keys(request, rows))[-1]][0]

    def _present(self, service: str) -> list:
        """The rows of the available SeDs solving ``service``, in walk order."""
        rows = self._rows
        solved = self._solved_by_all(service)
        if solved is None:
            return [
                row for sed, row in rows.items() if row is not None and sed.can_solve(service)
            ]
        return [row for row in rows.values() if row is not None] if solved else []

    def check(self) -> None:
        """:meth:`RowStore.check`, plus: the input groups match the rows."""
        super().check()
        if self._rank_key is not None:
            return
        groups: dict[tuple, list[tuple]] = {}
        for sed, row in self._rows.items():
            if row is not None and row[1] is not None:
                groups.setdefault(row[1], []).append((row[0].server, self._position[sed], row[0]))
        unscorable = sum(1 for row in self._rows.values() if row is not None and row[1] is None)
        if {inputs: sorted(members) for inputs, members in groups.items()} != self._groups:
            raise AssertionError("input groups do not match the rows")
        if unscorable != self._unscorable:
            raise AssertionError("unscorable count does not match the rows")


class WalkReplay(RowStore):
    """The walk's ``sort`` calls, replayed over the rows.

    For every policy without a total-order key the walk's own calls are
    the ranking: a local sort per agent, a merge re-sort only where an
    agent holds more than one partial ranking, and the Master Agent's
    re-sort of the entries its candidate set allows (the walk's output
    may end in a child's order).  Every call is the Master Agent's
    ``sort``, bound once.  The replay
    makes exactly those calls on exactly those lists, so a policy whose
    ranking depends on its call sequence (RANDOM draws fresh noise per
    ``sort``) moves its state as under the walk; only the per-request
    ``estimate`` calls and entry wrapping are gone.  The custom estimation
    functions run before the sorts rather than between them, so a policy
    must not share mutable state with one.
    """

    def __init__(self, master) -> None:
        super().__init__(master.all_seds(), _entry_row)
        self._sort = master.scheduler.sort
        self._tree = _agent_tree(master)

    def elect(self, request, allowed=None) -> CandidateEntry | None:
        """The head of the replay, or ``None``.

        Under a candidate set, the head of the Master Agent's re-sort of the
        allowed entries (of all of them, when none is allowed).
        """
        ranking = self.candidates(request)
        if not ranking:
            return None
        if allowed is not None:
            kept = [entry for entry in ranking if entry.server in allowed]
            ranking = self._sort(request, kept or ranking)
        return ranking[0]

    def candidates(self, request) -> list[CandidateEntry]:
        """The Master Agent's ranking for ``request``, as the walk builds it."""
        self._update(request)
        service = request.service
        solved = self._solved_by_all(service)
        if solved is False:
            return []
        return self._collect(self._tree, request, None if solved else service)

    def _collect(self, node, request, service) -> list[CandidateEntry]:
        """``Agent.collect_candidates`` over the rows (``service=None``: all solve)."""
        seds, children = node
        rows, sort = self._rows, self._sort
        if service is None:
            local = [row for sed in seds if (row := rows[sed]) is not None]
        else:
            local = [
                row
                for sed in seds
                if (row := rows[sed]) is not None and sed.can_solve(service)
            ]
        partial_rankings = [sort(request, local)] if local else []
        for child in children:
            ranking = self._collect(child, request, service)
            if ranking:
                partial_rankings.append(ranking)
        if len(partial_rankings) == 1:
            return partial_rankings[0]
        if not partial_rankings:
            return []
        merged = [entry for ranking in partial_rankings for entry in ranking]
        return sort(request, merged)


def _agent_tree(agent) -> tuple:
    """``(agent's own SeDs, child subtrees)``, recursively."""
    return tuple(agent.seds), tuple(_agent_tree(child) for child in agent.child_agents)


def _entry_row(entry: CandidateEntry) -> CandidateEntry:
    """A row that is the entry itself (keyed by ``rank_key``, or replayed by ``sort``)."""
    return entry


def _uniform_services(seds) -> frozenset[str] | None:
    """The one service set every SeD offers, or ``None`` if they differ."""
    services = {sed.services for sed in seds}
    return next(iter(services)) if len(services) == 1 else None


def choose_election(master) -> ResidentRanking | FlatElection | WalkReplay:
    """The election strategy for ``master``'s hierarchy, by its policy:

    1. a ``rank_key`` policy over SeDs that all use the default estimation
       function gets a :class:`ResidentRanking`;
    2. any other ``rank_key`` policy, or one with ``score_inputs`` and
       ``score_keys`` (GREEN_SCORE), gets a :class:`FlatElection`;
    3. anything else — RANDOM and the hook-less FCFS scheduler — gets a
       :class:`WalkReplay`.

    On a three-SeD hierarchy:

    >>> from repro.core.policies import policy_by_name
    >>> from repro.infrastructure.platform import grid5000_placement_platform
    >>> from repro.middleware.hierarchy import build_hierarchy
    >>> def strategy(policy):
    ...     platform = grid5000_placement_platform(nodes_per_cluster=1)
    ...     master, seds = build_hierarchy(platform, scheduler=policy_by_name(policy))
    ...     return len(seds), type(choose_election(master)).__name__
    >>> [strategy(name) for name in ("POWER", "GREEN_SCORE", "RANDOM")]
    [(3, 'ResidentRanking'), (3, 'FlatElection'), (3, 'WalkReplay')]
    """
    scheduler = master.scheduler
    seds = master.all_seds()
    if scheduler.rank_key is not None and all(sed.estimation_cacheable for sed in seds):
        return ResidentRanking(scheduler, seds)
    if scheduler.rank_key is not None or scheduler.score_keys is not None:
        return FlatElection(scheduler, seds)
    return WalkReplay(master)


__all__ = [
    "FlatElection", "ResidentRanking", "RowStore", "WalkReplay", "choose_election",
]
