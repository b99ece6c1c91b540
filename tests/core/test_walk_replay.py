"""Property-based proof: the replayed walk == the tree walk, call for call.

Every policy without a total-order key is elected by
:class:`~repro.middleware.ranking.WalkReplay`: it makes the walk's own
``sort`` calls — a local sort per agent, a merge re-sort where an agent
holds more than one partial ranking, and the Master Agent's re-sort after
the candidate filter — over rows kept between elections.  RANDOM draws
fresh noise in every call, so its ranking is a function of that call
sequence.  These tests make hypothesis hunt for a scheduler (RANDOM,
FCFS, or a recording scheduler whose ranking follows its call count), a
hierarchy (depth 1–3, empty Local Agents, a Local Agent whose SeDs all
failed, mixed services, custom estimation functions), a transition stream
(fail, repair, boot, power-off, core acquire/release, queue work) and a
candidate filter under which the replay and the walk
(:func:`tests.conftest.force_tree_walk`) disagree — in the elected server,
the full ranking, the RNG states after the run or the recorded ``sort``
calls — or under which the row
store's :meth:`~repro.middleware.ranking.RowStore.check` fails after an
election.  A second property pins ``RandomPolicy.sort`` to the
implementation it replaced, kept below as the oracle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import RandomPolicy, _availability_rank
from repro.infrastructure.node import NodeState
from repro.middleware.agents import LocalAgent, MasterAgent
from repro.middleware.plugin_scheduler import (
    CandidateEntry,
    FirstComeFirstServedScheduler,
    PluginScheduler,
)
from repro.middleware.ranking import WalkReplay
from repro.middleware.requests import ServiceRequest
from repro.middleware.sed import ServerDaemon
from repro.simulation.task import Task
from tests.conftest import TreeWalk, election_type, force_tree_walk, make_vector
from tests.core.test_flat_election import FUNCTIONS, _outcome, flat_op_strategy
from tests.core.test_ranking_incremental import _apply, _make_nodes, _make_seds


class _Recorder(PluginScheduler):
    """A stateful hook-less scheduler that logs every ``sort`` call.

    Each call appends the candidate server names to ``log`` and returns
    the candidates rotated by this scheduler's own call count, so, like
    RANDOM, its ranking depends on the whole call sequence.
    """

    name = "recorder"

    def __init__(self):
        self.log = []
        self._count = 0

    def sort(self, request, candidates):
        self.log.append([entry.server for entry in candidates])
        self._count += 1
        shift = self._count % len(candidates) if candidates else 0
        return [*candidates[shift:], *candidates[:shift]]


#: Schedulers with no total-order key, by name; ``seed`` seeds any RNG.
HOOKLESS = {
    "RANDOM": lambda seed: RandomPolicy(seed=seed),
    "FCFS": lambda seed: FirstComeFirstServedScheduler(),
    "RECORDER": lambda seed: _Recorder(),
}


def _build(seds, placement, depth, seed, *, walk, empty_agent, kind="RANDOM"):
    """A ``depth``-level hierarchy sorting with a ``kind`` scheduler seeded ``seed``.

    Agent 0 is the Master Agent; depth 2 adds two Local Agents, depth 3 a
    child under each.  ``empty_agent`` hangs one more Local Agent, which
    never gets a SeD, under the Master Agent.
    """
    master = MasterAgent(scheduler=HOOKLESS[kind](seed))
    if walk:
        force_tree_walk(master)
    agents = [master]
    if depth >= 2:
        for index in range(2):
            child = LocalAgent(f"la-{index}")
            master.add_agent(child)
            agents.append(child)
    if depth >= 3:
        for parent in list(agents[1:]):
            grandchild = LocalAgent(f"{parent.name}-sub")
            parent.add_agent(grandchild)
            agents.append(grandchild)
    if empty_agent:
        master.add_agent(LocalAgent("la-empty"))
    for sed, slot in zip(seds, placement):
        agents[slot % len(agents)].add_sed(sed)
    return master


def _state(master):
    """The scheduler's state: its RNG state or its recorded calls."""
    scheduler = master.scheduler
    if isinstance(scheduler, RandomPolicy):
        return scheduler._rng.bit_generator.state
    return getattr(scheduler, "log", None)


def _every_other(seds):
    """A candidate set of every other server (empty for one server: the fallback)."""
    return {sed.name for sed in seds[1::2]}


class TestReplayEqualsTreeWalk:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        depth=st.integers(min_value=1, max_value=3),
        node_count=st.integers(min_value=1, max_value=8),
        matmul_only=st.lists(st.booleans(), min_size=8, max_size=8),
        functions=st.lists(st.sampled_from(FUNCTIONS), min_size=8, max_size=8),
        placement=st.lists(st.integers(min_value=0, max_value=6), min_size=8, max_size=8),
        empty_agent=st.booleans(),
        fail_first_agent=st.booleans(),
        with_filter=st.booleans(),
        kind=st.sampled_from(sorted(HOOKLESS)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.lists(
            st.tuples(
                st.lists(flat_op_strategy, max_size=6),
                st.sampled_from(("cpu-burn", "matmul")),
                st.floats(min_value=1e8, max_value=1e13),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_replay_matches_tree_walk(
        self, depth, node_count, matmul_only, functions, placement, empty_agent,
        fail_first_agent, with_filter, kind, seed, steps,
    ):
        """Elected servers, full rankings and scheduler states agree bit for bit.

        Steps alternate between an election through ``submit`` and one
        that returns the whole (filtered) ranking.
        """
        seds = [
            ServerDaemon(
                node,
                services=("matmul",) if other else ("cpu-burn",),
                estimation_function=function,
            )
            for node, other, function in zip(_make_nodes(node_count), matmul_only, functions)
        ]
        running = {sed.name: [] for sed in seds}
        masters = [
            _build(
                seds, placement, depth, seed,
                walk=walk, empty_agent=empty_agent, kind=kind,
            )
            for walk in (False, True)
        ]
        if fail_first_agent:
            first = masters[0].child_agents[0] if depth >= 2 else masters[0]
            for sed in first.seds:
                sed.node.fail()
        if with_filter:
            for master in masters:
                master.set_candidate_filter(_every_other(seds))
        for index, (ops, service, flop) in enumerate(steps):
            for op, selector, magnitude in ops:
                sed = seds[selector % node_count]
                _apply(op, sed, magnitude, running[sed.name])
            request = ServiceRequest.from_task(Task(flop=flop, service=service))
            full = index % 2 == 1
            replayed = _outcome(masters[0], request, full=full)
            assert election_type(masters[0]) is WalkReplay
            masters[0]._election.check()
            assert replayed == _outcome(masters[1], request, full=full)
        assert type(masters[0]._election) is WalkReplay
        assert type(masters[1]._election) is TreeWalk
        assert _state(masters[0]) == _state(masters[1])

    def test_recorded_sort_calls_match_the_walk(self):
        """The same calls, in the same order, on the same lists."""
        seds = _make_seds(6)
        replay, walk = (
            _build(
                seds, (0, 1, 1, 2, 3, 4), 3, 20, walk=walk, empty_agent=True,
                kind="RECORDER",
            )
            for walk in (False, True)
        )
        for master in (replay, walk):
            master.set_candidate_filter(_every_other(seds))
        request = ServiceRequest.from_task(Task(flop=4.0e9))
        for index in range(3):
            full = index % 2 == 1
            assert _outcome(replay, request, full=full) == _outcome(walk, request, full=full)
            seds[1].node.acquire_core()
        log = _state(replay)
        assert log == _state(walk)
        # Per election: a local sort at each of the five agents holding a
        # SeD, a merge re-sort at the three holding more than one partial
        # ranking, and the Master Agent's re-sort of the allowed entries.
        assert len(log) == 3 * (5 + 3 + 1)
        assert log[:2] == [["node-0"], ["node-1", "node-2"]]

    def test_steady_state_elections_estimate_nothing(self, monkeypatch):
        """Only the SeDs a transition marked dirty are re-estimated."""
        calls = []
        original = ServerDaemon.estimate

        def recorded(sed, request):
            calls.append(sed)
            return original(sed, request)

        seds = _make_seds(6)
        master = _build(seds, range(6), 3, 5, walk=False, empty_agent=True)
        request = ServiceRequest.from_task(Task(flop=4.0e9))
        master.submit(request)
        monkeypatch.setattr(ServerDaemon, "estimate", recorded)
        master.submit(request)
        assert calls == []
        seds[2].node.acquire_core()
        master.submit(request)
        assert calls == [seds[2]]


def _old_sort(rng, candidates):
    """``RandomPolicy.sort`` as it was: numpy scalars under a key lambda."""
    indexed = list(candidates)
    noise = rng.random(len(indexed))
    order = sorted(
        range(len(indexed)),
        key=lambda i: (_availability_rank(indexed[i]), noise[i]),
    )
    return [indexed[i] for i in order]


class _TiedNoise:
    """An RNG stand-in whose draws come from a short list, so noise ties."""

    def __init__(self, values):
        self.values = values
        self.drawn = 0

    def random(self, size):
        values = [self.values[(self.drawn + i) % len(self.values)] for i in range(size)]
        self.drawn += size
        return np.array(values, dtype=float)


def _entries(free_cores):
    return [
        CandidateEntry.from_vector(make_vector(f"n-{index}", free_cores=free))
        for index, free in enumerate(free_cores)
    ]


class TestRandomSortMatchesTheOldSort:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        calls=st.lists(
            st.lists(st.sampled_from((0.0, 1.0, 3.0)), max_size=12), min_size=1, max_size=6
        ),
    )
    def test_same_order_and_rng_state(self, seed, calls):
        policy, oracle = RandomPolicy(seed=seed), np.random.default_rng(seed)
        request = ServiceRequest.from_task(Task())
        for free_cores in calls:
            entries = _entries(free_cores)
            assert policy.sort(request, tuple(entries)) == _old_sort(oracle, entries)
        assert policy._rng.bit_generator.state == oracle.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(
        noise=st.lists(st.sampled_from((0.0, 0.25, 0.5)), min_size=1, max_size=4),
        free_cores=st.lists(st.sampled_from((0.0, 2.0)), max_size=10),
    )
    def test_noise_ties_break_by_position(self, noise, free_cores):
        policy, oracle = RandomPolicy(), _TiedNoise(noise)
        policy._rng = _TiedNoise(noise)
        entries = _entries(free_cores)
        request = ServiceRequest.from_task(Task())
        assert policy.sort(request, entries) == _old_sort(oracle, entries)
        assert policy._rng.drawn == oracle.drawn == len(entries)

    def test_a_single_candidate_still_draws(self):
        policy, oracle = RandomPolicy(seed=3), np.random.default_rng(3)
        entries = _entries([1.0])
        assert policy.sort(ServiceRequest.from_task(Task()), entries) == entries
        oracle.random(1)
        assert policy._rng.bit_generator.state == oracle.bit_generator.state


def test_a_failed_local_agent_is_skipped_like_the_walk():
    """A Local Agent whose every SeD failed contributes no partial ranking."""
    seds = _make_seds(4)
    replay, walk = (
        _build(seds, (1, 1, 2, 2), 2, 9, walk=walk, empty_agent=False)
        for walk in (False, True)
    )
    for sed in seds[:2]:
        sed.node.fail()
    assert all(sed.node.state is NodeState.FAILED for sed in replay.child_agents[0].seds)
    request = ServiceRequest.from_task(Task(flop=4.0e9))
    for _ in range(3):
        assert replay.submit(request).elected == walk.submit(request).elected
    assert replay.scheduler._rng.bit_generator.state == walk.scheduler._rng.bit_generator.state
