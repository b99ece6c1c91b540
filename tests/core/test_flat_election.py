"""Property-based proof: the flat GREEN_SCORE election == the tree walk.

GREEN_SCORE's key (Equation 6 score, server name) depends on the request,
so no order can stay resident; but it is a total order, so when one
policy instance sorts at every level the walk's per-level sorts plus
re-scoring aggregates give the same permutation as one global sort.  The
Master Agent therefore scores each server once per election
(:class:`~repro.middleware.ranking.FlatElection`).  These tests make
hypothesis hunt for a hierarchy, node state or preference where the flat
election and the tree walk (:func:`tests.conftest.force_tree_walk`)
disagree — in the elected server, the ranked vectors or the error raised.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import GreenSchedulerPolicy
from repro.infrastructure.node import Node
from repro.middleware.agents import LocalAgent, MasterAgent
from repro.middleware.ranking import FlatElection, TreeWalk
from repro.middleware.requests import ServiceRequest
from repro.middleware.sed import ServerDaemon, default_estimation_function
from repro.simulation.task import Task
from tests.conftest import force_tree_walk, make_spec
from tests.core.test_ranking_incremental import _apply, _make_seds, op_strategy

#: Request preferences (Tasks reject values outside [-1, 1]).
REQUEST_PREFERENCES = (0.0, 0.5, -0.5, 1.0, -1.0)
#: Non-zero defaults, applied when the request says 0; the last two are
#: out of range and must raise the same error on both paths.
DEFAULT_PREFERENCES = (0.25, -0.7, 1.0, -1.0, 1.5, -2.0)


def _identical_seds(count: int) -> list[ServerDaemon]:
    """Same spec everywhere: every score ties, so the name breaks ties."""
    return [ServerDaemon(Node(make_spec(name=f"twin-{i}"))) for i in range(count)]


def _build(seds, placement, depth, policy, *, walk=False):
    """A ``depth``-level hierarchy with one policy instance at every level.

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
            child = LocalAgent(f"la-{index}", scheduler=policy)
            master.add_agent(child)
            agents.append(child)
    if depth >= 3:
        for parent in list(agents[1:]):
            grandchild = LocalAgent(f"{parent.name}-sub", scheduler=policy)
            parent.add_agent(grandchild)
            agents.append(grandchild)
    for sed, slot in zip(seds, placement):
        agents[slot % len(agents)].add_sed(sed)
    return master


def _outcome(master, request):
    """What one election returns, or the error it raises."""
    try:
        outcome = master.submit(request)
    except (ValueError, TypeError) as error:
        return type(error), str(error)
    return outcome.elected, [id(vector) for vector in outcome.ranked_candidates]


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
        placement=st.lists(st.integers(min_value=0, max_value=6), min_size=8, max_size=8),
        default_preference=st.sampled_from(DEFAULT_PREFERENCES),
        use_dynamic_power=st.booleans(),
        steps=st.lists(
            st.tuples(
                st.lists(op_strategy, max_size=6),
                st.sampled_from(REQUEST_PREFERENCES),
                st.floats(min_value=1e8, max_value=1e13),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_flat_election_matches_tree_walk(
        self, depth, node_count, twins, matmul_only, placement, default_preference,
        use_dynamic_power, steps,
    ):
        """Elected server, ranked vectors and errors agree bit for bit."""
        seds = [
            ServerDaemon(sed.node, services=("matmul",)) if other else sed
            for sed, other in zip(
                _identical_seds(node_count) if twins else _make_seds(node_count),
                matmul_only,
            )
        ]
        running = {sed.name: [] for sed in seds}
        masters = [
            _build(
                seds,
                placement,
                depth,
                GreenSchedulerPolicy(
                    default_preference=default_preference,
                    use_dynamic_power=use_dynamic_power,
                ),
                walk=walk,
            )
            for walk in (False, True)
        ]
        for ops, preference, flop in steps:
            for op, selector, magnitude in ops:
                sed = seds[selector % node_count]
                _apply(op, sed, magnitude, running[sed.name])
            request = ServiceRequest.from_task(
                Task(flop=flop, user_preference=preference)
            )
            flat, walk = (_outcome(master, request) for master in masters)
            assert flat == walk
        assert type(masters[0]._election) is FlatElection
        assert type(masters[1]._election) is TreeWalk


class TestFlatElectionGate:
    def _request(self):
        return ServiceRequest.from_task(Task(flop=4.0e9))

    def test_one_sort_per_election_even_with_a_filter(self, monkeypatch):
        calls = []
        original = GreenSchedulerPolicy.sort

        def counted(self, request, candidates):
            calls.append(len(candidates))
            return original(self, request, candidates)

        monkeypatch.setattr(GreenSchedulerPolicy, "sort", counted)
        seds = _make_seds(6)
        master = _build(seds, range(6), 3, GreenSchedulerPolicy())
        master.submit(self._request())
        # An order-preserving filter does not trigger a re-sort.
        master.set_candidate_filter(lambda request, candidates: candidates[1:])
        outcome = master.submit(self._request())
        assert calls == [6, 6]
        assert len(outcome.ranked_candidates) == 5

    def test_mixed_policy_instances_walk_the_tree(self):
        seds = _make_seds(4)
        master = _build(seds, range(4), 2, GreenSchedulerPolicy())
        master.child_agents[0].scheduler = GreenSchedulerPolicy()
        assert master.submit(self._request()).elected is not None
        assert type(master._election) is TreeWalk

    def test_topology_change_rebuilds_the_flat_election(self):
        seds = _make_seds(3)
        master = _build(seds[:2], range(2), 1, GreenSchedulerPolicy())
        master.submit(self._request())
        first = master._election
        master.add_sed(seds[2])
        outcome = master.submit(self._request())
        assert type(master._election) is FlatElection
        assert master._election is not first
        assert len(outcome.ranked_candidates) == 3

    def test_custom_estimation_function_keeps_the_flat_election(self):
        seds = _make_seds(4)
        seds[2].set_estimation_function(default_estimation_function)
        flat, walk = (
            _build(seds, range(4), 2, GreenSchedulerPolicy(), walk=walk)
            for walk in (False, True)
        )
        request = self._request()
        assert [v.server for v in flat.submit(request).ranked_candidates] == [
            v.server for v in walk.submit(request).ranked_candidates
        ]
        assert type(flat._election) is FlatElection
