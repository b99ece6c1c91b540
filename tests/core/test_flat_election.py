"""Property-based proof: the flat GREEN_SCORE election == the tree walk.

GREEN_SCORE's key (Equation 6 score, server name) depends on the request,
so no order can stay resident; but it is a total order, so when one
policy instance sorts at every level the walk's per-level sorts plus
re-scoring aggregates give the same permutation as one global sort.  The
Master Agent therefore scores each server once per election
(:class:`~repro.middleware.ranking.FlatElection`), keeping each server's
score inputs between elections and re-reading only the SeDs that changed.
These tests make hypothesis hunt for a hierarchy, node state, set of
custom estimation functions or preference where the flat election and the
tree walk (:func:`tests.conftest.force_tree_walk`) disagree — in the
elected server, the ranked vectors or the error raised — or where the
flat election calls ``estimate`` on a SeD that neither changed nor uses a
custom estimation function.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import GreenSchedulerPolicy
from repro.core.scoring import ScoreKernel
from repro.infrastructure.node import Node
from repro.middleware.agents import LocalAgent, MasterAgent
from repro.middleware.ranking import FlatElection
from repro.middleware.requests import ServiceRequest
from repro.middleware.sed import ServerDaemon, default_estimation_function
from repro.simulation.task import Task
from tests.conftest import TreeWalk, election_type, force_tree_walk, make_spec, ranking
from tests.core.test_ranking_incremental import (
    _apply,
    _make_nodes,
    _make_seds,
    _request_aware_estimation,
    op_strategy,
)

#: Request preferences (Tasks reject values outside [-1, 1]).
REQUEST_PREFERENCES = (0.0, 0.5, -0.5, 1.0, -1.0)
#: Non-zero defaults, applied when the request says 0; the last two are
#: out of range and must raise the same error on both paths.
DEFAULT_PREFERENCES = (0.25, -0.7, 1.0, -1.0, 1.5, -2.0)


#: Node lifecycle steps drawn on their own, so off/fail/recover sequences
#: are common rather than diluted among queue operations.
LIFECYCLE = ("power_off", "boot", "boot_done", "fail", "repair")

#: One step of a run: a transition from the shared vocabulary or a
#: lifecycle step.
flat_op_strategy = st.one_of(
    op_strategy,
    st.tuples(
        st.sampled_from(LIFECYCLE),
        st.integers(min_value=0, max_value=63),
        st.floats(min_value=1.0, max_value=1e3),
    ),
)

#: The estimation function a SeD is built with: the cached default, the
#: default installed as a custom function, or a request-aware one.
FUNCTIONS = (None, default_estimation_function, _request_aware_estimation)


@contextmanager
def _estimate_calls():
    """Record every SeD ``estimate`` is called on, in call order."""
    calls = []
    original = ServerDaemon.estimate

    def recorded(sed, request):
        calls.append(sed)
        return original(sed, request)

    ServerDaemon.estimate = recorded
    try:
        yield calls
    finally:
        ServerDaemon.estimate = original


def _identical_nodes(count: int) -> list[Node]:
    """Same spec everywhere: every score ties, so the name breaks ties."""
    return [Node(make_spec(name=f"twin-{i}")) for i in range(count)]


def _identical_seds(count: int) -> list[ServerDaemon]:
    return [ServerDaemon(node) for node in _identical_nodes(count)]


def _build(seds, placement, depth, policy, *, walk=False):
    """A ``depth``-level hierarchy sorting with ``policy`` at every level.

    Agent 0 is the Master Agent; depth 2 adds two Local Agents under it,
    depth 3 gives each of those a child Local Agent.  ``placement[i]``
    picks the agent SeD ``i`` attaches to; ``walk`` pins the tree walk.
    """
    master = MasterAgent(scheduler=policy)
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
    for sed, slot in zip(seds, placement):
        agents[slot % len(agents)].add_sed(sed)
    return master


def _outcome(master, request, *, full):
    """One election: its full ranking (``full``) or its winner, or the error.

    Returns ``("ranking", vectors)``, ``("elected", name)`` or ``("error",
    (type, message))``.  The ranking is the strategy's ``candidates``,
    filtered as the Master Agent filters it; the winner is what
    ``MasterAgent.submit`` elects.  A ranked vector is its identity when
    its SeD caches (both paths must serve the very same cached object) and
    its contents otherwise (a custom estimation function builds a fresh
    vector per call).
    """
    seds = {sed.name: sed for sed in master.all_seds()}
    try:
        if not full:
            return "elected", master.submit(request).elected
        ranked = ranking(master, request)
    except (ValueError, TypeError) as error:
        return "error", (type(error), str(error))
    return "ranking", [
        id(entry.estimation)
        if seds[entry.server].estimation_cacheable
        else (entry.server, dict(entry.estimation.values))
        for entry in ranked
    ]


class TestFlatEqualsTreeWalk:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        depth=st.integers(min_value=1, max_value=3),
        node_count=st.integers(min_value=1, max_value=8),
        twins=st.booleans(),
        matmul_only=st.lists(st.booleans(), min_size=8, max_size=8),
        functions=st.lists(st.sampled_from(FUNCTIONS), min_size=8, max_size=8),
        placement=st.lists(st.integers(min_value=0, max_value=6), min_size=8, max_size=8),
        default_preference=st.sampled_from(DEFAULT_PREFERENCES),
        steps=st.lists(
            st.tuples(
                st.lists(flat_op_strategy, max_size=6),
                st.sampled_from(REQUEST_PREFERENCES),
                st.floats(min_value=1e8, max_value=1e13),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_flat_election_matches_tree_walk(
        self, depth, node_count, twins, matmul_only, functions, placement,
        default_preference, steps,
    ):
        """Elected servers, ranked vectors and errors agree bit for bit.

        Steps alternate between an election through ``submit`` and one
        that returns the whole ranking.

        The flat election calls ``estimate`` only on the SeDs invalidated
        since its last election and on those with custom estimation
        functions, and the latter in the walk's depth-first order.
        """
        seds = [
            ServerDaemon(
                node,
                services=("matmul",) if other else ("cpu-burn",),
                estimation_function=function,
            )
            for node, other, function in zip(
                _identical_nodes(node_count) if twins else _make_nodes(node_count),
                matmul_only,
                functions,
            )
        ]
        running = {sed.name: [] for sed in seds}
        masters = [
            _build(
                seds,
                placement,
                depth,
                GreenSchedulerPolicy(default_preference=default_preference),
                walk=walk,
            )
            for walk in (False, True)
        ]
        order = masters[0].all_seds()
        for index, (ops, preference, flop) in enumerate(steps):
            for op, selector, magnitude in ops:
                sed = seds[selector % node_count]
                _apply(op, sed, magnitude, running[sed.name])
            request = ServiceRequest.from_task(
                Task(flop=flop, user_preference=preference)
            )
            assert election_type(masters[0]) is FlatElection
            dirty = set(masters[0]._election._dirty)
            custom = [
                sed
                for sed in order
                if not sed.estimation_cacheable and sed.can_solve(request.service)
            ]
            full = index % 2 == 1
            with _estimate_calls() as calls:
                flat = _outcome(masters[0], request, full=full)
            assert set(calls) <= dirty | set(custom)
            assert [sed for sed in calls if sed in custom] == custom
            if flat[0] != "error":
                masters[0]._election.check()
            assert flat == _outcome(masters[1], request, full=full)
        assert type(masters[0]._election) is FlatElection
        assert type(masters[1]._election) is TreeWalk


class TestFlatElectionGate:
    def _request(self):
        return ServiceRequest.from_task(Task(flop=4.0e9))

    def test_one_scoring_pass_per_election_even_with_a_filter(self, monkeypatch):
        calls = []
        original = GreenSchedulerPolicy.score_keys

        def counted(self, request, rows):
            calls.append(len(rows))
            return original(self, request, rows)

        monkeypatch.setattr(GreenSchedulerPolicy, "score_keys", counted)
        monkeypatch.setattr(GreenSchedulerPolicy, "sort", None)  # never re-sorted
        seds = _make_seds(6)
        master = _build(seds, range(6), 3, GreenSchedulerPolicy())
        head = master.submit(self._request()).elected
        # A candidate set does not trigger a re-sort.
        master.set_candidate_filter({sed.name for sed in seds} - {head})
        assert len(ranking(master, self._request())) == 5
        assert master.submit(self._request()).elected is not None
        assert calls == [6, 6, 6]

    def test_equal_server_states_are_scored_once(self, monkeypatch):
        calls = []
        original = ScoreKernel.evaluate_inputs

        def counted(self, *inputs):
            calls.append(inputs)
            return original(self, *inputs)

        monkeypatch.setattr(ScoreKernel, "evaluate_inputs", counted)
        master = _build(_identical_seds(5), range(5), 2, GreenSchedulerPolicy())
        assert master.submit(self._request()).elected == "twin-0"
        assert len(calls) == 1

    def test_custom_estimation_function_keeps_the_flat_election(self):
        seds = _make_seds(4, {2: default_estimation_function})
        flat, walk = (
            _build(seds, range(4), 2, GreenSchedulerPolicy(), walk=walk)
            for walk in (False, True)
        )
        request = self._request()
        assert [e.server for e in ranking(flat, request)] == [
            e.server for e in ranking(walk, request)
        ]
        assert flat.submit(request).elected == walk.submit(request).elected
        assert type(flat._election) is FlatElection

    def test_steady_state_election_reads_only_the_changed_seds(self):
        seds = _make_seds(6, {4: _request_aware_estimation})
        master = _build(seds, range(6), 3, GreenSchedulerPolicy())
        with _estimate_calls() as calls:
            master.submit(self._request())
        assert sorted(sed.name for sed in calls) == [sed.name for sed in seds]
        with _estimate_calls() as calls:
            master.submit(self._request())
        assert calls == [seds[4]]
        seds[1].node.acquire_core()
        seds[2].record_request_power(120.0)
        with _estimate_calls() as calls:
            outcome = master.submit(self._request())
        assert sorted(sed.name for sed in calls) == sorted(
            sed.name for sed in (seds[1], seds[2], seds[4])
        )
        assert calls[-1] is seds[4]
        walk = _build(seds, range(6), 3, GreenSchedulerPolicy(), walk=True)
        assert outcome.elected == walk.submit(self._request()).elected
