"""Agent hierarchy: Master Agent and Local Agents.

Agents "deployed alone or in a hierarchy, facilitate service location and
invocation interactions between clients and SEDs" (Section II-A).  The
scheduling process reproduced here follows Section III-A:

1. a client issues a request to the Master Agent;
2. the request is propagated down the hierarchy to the SeDs able to solve
   the problem;
3. each SeD fills an estimation vector which travels back up;
4. at each level, the agent sorts the candidates with the plug-in
   scheduler; the Master Agent elects the first SeD of the final ranking;
5. the client contacts the elected SeD.

A *candidate filter* on the Master Agent — a set of server names — lets
the green provisioning layer (Section III-C) restrict the election to the
candidate nodes: that is where the administrator's thresholds and
``Preference_provider`` act.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.middleware.plugin_scheduler import (
    CandidateEntry,
    FirstComeFirstServedScheduler,
    PluginScheduler,
)
from repro.middleware.ranking import choose_election
from repro.middleware.requests import SchedulingOutcome, ServiceRequest
from repro.middleware.sed import ServerDaemon


class HierarchyError(RuntimeError):
    """The agent hierarchy lacks the shape an operation needs."""


class Agent:
    """A node of the agent hierarchy.

    Children are either other agents or SeDs.  Every agent sorts the
    candidates it forwards upwards with the one plug-in scheduler its
    Master Agent holds (DIET runs the same plug-in at every agent).  The
    topology is open until the Master Agent's first election and frozen
    from then on.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("agent name must be a non-empty string")
        self.name = name
        self._child_agents: list[Agent] = []
        self._seds: list[ServerDaemon] = []
        self._parent: "Agent | None" = None

    def _root(self) -> "Agent":
        agent = self
        while agent._parent is not None:
            agent = agent._parent
        return agent

    def _ensure_open(self) -> None:
        """Raise :class:`RuntimeError` once this agent's hierarchy has elected."""
        root = self._root()
        if isinstance(root, MasterAgent) and root._election is not None:
            raise RuntimeError(
                f"the hierarchy of {root.name!r} has elected; its topology is frozen"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}({self.name!r}, "
            f"{len(self._child_agents)} agents, {len(self._seds)} SeDs)"
        )

    # -- topology -----------------------------------------------------------------
    def add_agent(self, agent: "Agent") -> None:
        """Attach a parentless child agent (before the first election)."""
        if agent._parent is not None:
            raise ValueError(f"agent {agent.name!r} already has a parent")
        if agent is self._root():
            raise ValueError("an agent cannot be its own ancestor")
        self._ensure_open()
        agent._ensure_open()
        self._child_agents.append(agent)
        agent._parent = self

    def add_sed(self, sed: ServerDaemon) -> None:
        """Attach a SeD (before the first election)."""
        self._ensure_open()
        self._seds.append(sed)

    @property
    def child_agents(self) -> Sequence["Agent"]:
        """Directly attached child agents."""
        return tuple(self._child_agents)

    @property
    def seds(self) -> Sequence[ServerDaemon]:
        """Directly attached SeDs."""
        return tuple(self._seds)

    def all_seds(self) -> Sequence[ServerDaemon]:
        """Every SeD reachable from this agent (depth-first)."""
        found: list[ServerDaemon] = list(self._seds)
        for child in self._child_agents:
            found.extend(child.all_seds())
        return tuple(found)

    # -- request propagation -----------------------------------------------------------
    def collect_candidates(self, request: ServiceRequest) -> list[CandidateEntry]:
        """Steps 2–4 for this subtree: propagate, collect, sort.

        Only SeDs that can solve the requested service and whose node is
        powered on contribute an estimation vector.  Every level sorts
        with the Master Agent's plug-in scheduler, so the walk needs a
        Master Agent at the root of this agent's hierarchy; without one it
        raises :class:`HierarchyError`.
        """
        root = self._root()
        if not isinstance(root, MasterAgent):
            raise HierarchyError(
                f"agent {self.name!r} has no Master Agent at its root ({root.name!r}): "
                f"collecting candidates needs one to hold the plug-in scheduler"
            )
        return self._collect(request, root.scheduler.sort)

    def _collect(self, request: ServiceRequest, sort) -> list[CandidateEntry]:
        local: list[CandidateEntry] = []
        for sed in self._seds:
            if not sed.can_solve(request.service):
                continue
            vector = sed.estimate(request)
            if not vector.available:
                continue
            local.append(CandidateEntry.from_vector(vector))

        partial_rankings: list[Sequence[CandidateEntry]] = []
        if local:
            partial_rankings.append(sort(request, local))
        for child in self._child_agents:
            ranking = child._collect(request, sort)
            if ranking:
                partial_rankings.append(ranking)

        if not partial_rankings:
            return []
        if len(partial_rankings) == 1:
            return list(partial_rankings[0])
        # DIET runs the same plug-in at every agent: concatenate the
        # children's rankings and re-sort them with the same criterion.
        merged = [entry for ranking in partial_rankings for entry in ranking]
        return sort(request, merged)


class LocalAgent(Agent):
    """An intermediate agent (LA) of the hierarchy."""


class MasterAgent(Agent):
    """The head of the hierarchy (MA).

    In addition to the common agent behaviour, the Master Agent holds the
    hierarchy's one plug-in scheduler and an optional *candidate filter*
    — the frozen set of server names the adaptive provisioning layer
    allows — and elects the best-ranked allowed SeD, or the best-ranked
    SeD when the set allows none of the candidates (provisioning never
    leaves a request unservable).  How that winner is found (a resident
    order, a flat ``min`` or a replay of the tree walk) is chosen once,
    at the first election, by
    :func:`~repro.middleware.ranking.choose_election`; from then on the
    hierarchy's topology is frozen.
    """

    def __init__(self, *, scheduler: PluginScheduler | None = None) -> None:
        super().__init__("master-agent")
        self._scheduler = scheduler or FirstComeFirstServedScheduler()
        self.candidate_filter: frozenset[str] | None = None
        #: Picks the election strategy at the first election.
        self._choose_election = choose_election
        self._election = None
        #: Optional :class:`~repro.util.phases.PhaseTimer` attributing
        #: election time to the estimation/scoring phases (profiled runs
        #: only; ``None`` costs nothing).
        self.phase_timer = None

    def set_candidate_filter(self, servers: Iterable[str] | None) -> None:
        """Allow only ``servers`` to be elected (``None`` allows every server).

        The names are frozen (a ``frozenset`` is kept as is), so a caller
        that goes on mutating its own set never moves the filter.
        """
        self.candidate_filter = None if servers is None else frozenset(servers)

    @property
    def scheduler(self) -> PluginScheduler:
        """The plug-in scheduler every agent of the hierarchy sorts with."""
        return self._scheduler

    def _current_election(self):
        """The election strategy, chosen (and the topology frozen) on first use."""
        if self._election is None:
            self._election = self._choose_election(self)
        return self._election

    def submit(self, request: ServiceRequest) -> SchedulingOutcome:
        """Run the full scheduling process for one request.

        Returns a :class:`SchedulingOutcome` whose ``elected`` field is
        ``None`` when no SeD can solve the request (error case of step 1).
        """
        timer = self.phase_timer
        if timer is not None:
            timer.push("estimation")
        election = self._election
        if election is None:
            election = self._current_election()
        if timer is not None:
            election.refresh(request)
            timer.pop()
            timer.push("scoring")
        try:
            winner = election.elect(request, self.candidate_filter)
        finally:
            if timer is not None:
                timer.pop()
        return SchedulingOutcome(None if winner is None else winner.server)
