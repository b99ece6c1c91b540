"""The candidate-filter contract and the elections that rely on it.

A :data:`~repro.middleware.agents.CandidateFilter` returns an
order-preserving subsequence of its input.  The Master Agent relies on it
to skip re-sorting a resident or flat-election ranking after the filter;
these tests pin the contract on the provisioning planner and check that,
with a filter installed, every built-in policy elects exactly what
"walk, filter, re-sort" elects — RANDOM included, draw for draw.
"""

from __future__ import annotations

import pytest

from repro.core.policies import policy_by_name
from repro.core.provisioning import ProvisioningConfig
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


def _keep_even(request, candidates):
    """An order-preserving filter that falls back to everything, like the planner."""
    kept = [entry for entry in candidates if int(entry.server.split("-")[1]) % 2 == 0]
    return kept if kept else list(candidates)


class TestPlannerFilterContract:
    def test_filter_is_an_order_preserving_subsequence(self):
        planner, _, master, _ = make_planner(default_cost=1.0)
        request = ServiceRequest.from_task(Task(flop=2.3e9))
        candidates = master.collect_candidates(request)
        for order in (candidates, candidates[::-1]):
            filtered = planner._filter_candidates(request, order)
            assert 0 < len(filtered) < len(order)
            assert list(filtered) == [
                entry for entry in order if entry.server in planner.candidate_nodes
            ]

    def test_fallback_keeps_the_full_list_in_order(self):
        config = ProvisioningConfig(initial_candidates=0)
        planner, _, master, _ = make_planner(config=config)
        request = ServiceRequest.from_task(Task(flop=2.3e9))
        candidates = master.collect_candidates(request)[::-1]
        filtered = planner._filter_candidates(request, candidates)
        assert list(filtered) == candidates


def _hierarchy(seds, policy):
    """Two Local Agents under the Master Agent, one policy instance everywhere."""
    master = MasterAgent(scheduler=policy, candidate_filter=_keep_even)
    for index in range(2):
        child = LocalAgent(f"la-{index}", scheduler=policy)
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
                request, _keep_even(request, reference.collect_candidates(request))
            )
            assert elected == [entry.server for entry in expected][: len(elected)]
            assert len(elected) in (1, len(expected))
        if policy_name == "RANDOM":
            assert policy._rng.bit_generator.state == reference_policy._rng.bit_generator.state
