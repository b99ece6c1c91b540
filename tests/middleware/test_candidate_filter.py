"""The candidate-set contract and the elections that rely on it.

The Master Agent's candidate filter is a set of server names: it elects
the best-ranked allowed server, or the best-ranked server when the set
allows none of the candidates.  These tests pin the contract on the
provisioning planner and check that, with a set installed, every built-in
policy elects exactly what "walk, keep the allowed, re-sort" elects —
RANDOM included, draw for draw.
"""

from __future__ import annotations

import pytest

from repro.core.policies import policy_by_name
from repro.middleware.agents import LocalAgent, MasterAgent
from repro.middleware.requests import ServiceRequest
from repro.simulation.task import Task
from tests.core.test_provisioning import make_planner
from tests.conftest import ranking
from tests.core.test_ranking_incremental import _apply, _make_seds

BUILT_IN_POLICIES = (
    "POWER", "PERFORMANCE", "RANDOM", "GREENPERF", "GREEN_SCORE",
    "FCFS", "EASY", "CONSERVATIVE", "DRF",
)
PREFERENCES = (0.0, 0.5, -0.5, 1.0, -1.0)


#: The candidate set: the even-numbered servers of ``_make_seds``.
EVEN = frozenset(f"node-{index}" for index in range(0, 7, 2))


def _keep_even(candidates):
    """The allowed entries of ``candidates``, or all of them when none is."""
    kept = [entry for entry in candidates if entry.server in EVEN]
    return kept if kept else list(candidates)


class TestPlannerFilterContract:
    def test_election_is_the_first_candidate_of_the_ranking(self):
        planner, _, master, _ = make_planner()
        planner.install()
        request = ServiceRequest.from_task(Task(flop=2.3e9))
        candidates = master.collect_candidates(request)
        allowed = [entry.server for entry in candidates if entry.server in planner.candidate_nodes]
        assert 0 < len(allowed) < len(candidates)
        assert master.submit(request).elected == allowed[0]

    def test_fallback_elects_the_head_of_the_full_ranking(self):
        planner, _, master, _ = make_planner()
        planner.install()
        master.set_candidate_filter(frozenset())
        request = ServiceRequest.from_task(Task(flop=2.3e9))
        assert master.submit(request).elected == master.collect_candidates(request)[0].server


def _hierarchy(seds, policy):
    """Two Local Agents under a Master Agent sorting with ``policy``."""
    master = MasterAgent(scheduler=policy)
    master.set_candidate_filter(EVEN)
    for index in range(2):
        child = LocalAgent(f"la-{index}")
        master.add_agent(child)
        for sed in seds[index::2]:
            child.add_sed(sed)
    return master


class TestFilteredElections:
    @pytest.mark.parametrize("policy_name", BUILT_IN_POLICIES)
    def test_election_equals_walk_filter_resort(self, policy_name):
        seds = _make_seds(7)
        running = {sed.name: [] for sed in seds}
        kwargs = {"seed": 5} if policy_name == "RANDOM" else {}
        policy = policy_by_name(policy_name, **kwargs)
        reference_policy = policy_by_name(policy_name, **kwargs)
        master = _hierarchy(seds, policy)
        reference = _hierarchy(seds, reference_policy)
        ops = [
            ("enqueue", 2, 40.0), ("start", 2, 1.0), ("power_off", 4, 1.0),
            ("fail", 6, 1.0), ("record_power", 0, 90.0), ("enqueue", 0, 500.0),
            ("boot", 4, 1.0), ("repair", 6, 1.0), ("boot_done", 4, 1.0),
        ]
        for step, (op, index, magnitude) in enumerate(ops):
            _apply(op, seds[index], magnitude, running[seds[index].name])
            request = ServiceRequest.from_task(
                Task(flop=1e9 * (1 + step), user_preference=PREFERENCES[step % 5])
            )
            # One election per step on each side: the Master Agent's
            # (alternately its elected server and its whole filtered
            # ranking) and the parent's walk, filter, re-sort.
            if step % 2:
                elected = [entry.server for entry in ranking(master, request)]
            else:
                elected = [master.submit(request).elected]
            expected = reference_policy.sort(
                request, _keep_even(reference.collect_candidates(request))
            )
            assert elected == [entry.server for entry in expected][: len(elected)]
            assert len(elected) in (1, len(expected))
        if policy_name == "RANDOM":
            assert policy._rng.bit_generator.state == reference_policy._rng.bit_generator.state
