"""Property-based proof: an election under a candidate set == "rank, keep, fall back".

The Master Agent's candidate filter is a set of server names.  Its rule:
elect the best-ranked allowed server, or else the best-ranked server.
Each strategy applies it inside ``elect(request, allowed)``; the
reference (:func:`tests.conftest.allowed_ranking`) ranks with the
strategy's ``candidates``, keeps the allowed servers, falls back to all of
them, re-sorts for a replayed walk and takes the head.  Twin hierarchies
over the same SeDs, one electing through ``MasterAgent.submit`` with the
set installed and one through the reference, must agree after every
transition on the winner and on every RANDOM generator state, and the
electing twin's store must pass its ``check()``.  Hypothesis draws every
built-in policy — through the resident ranking, the flat election (a
custom estimation function, or GREEN_SCORE) and the replay (RANDOM or
the hook-less scheduler) — and allowed sets that are empty, disjoint from
the fleet, the whole fleet or any mix.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import policy_by_name
from repro.middleware.plugin_scheduler import FirstComeFirstServedScheduler
from repro.middleware.ranking import FlatElection, ResidentRanking, WalkReplay
from repro.middleware.requests import ServiceRequest
from repro.middleware.sed import ServerDaemon
from repro.simulation.task import Task
from tests.conftest import allowed_ranking
from tests.core.test_elect import _build, _rng_states, step_strategy
from tests.core.test_flat_election import REQUEST_PREFERENCES
from tests.core.test_ranking_incremental import (
    _apply,
    _make_nodes,
    _request_aware_estimation,
)

#: Every built-in policy, and ``HOOKLESS``: the scheduler with no ranking hook.
POLICIES = (
    "POWER", "PERFORMANCE", "GREENPERF", "FCFS", "EASY", "CONSERVATIVE", "DRF",
    "GREEN_SCORE", "RANDOM", "HOOKLESS",
)

NAMES = tuple(f"node-{index}" for index in range(8))
GHOSTS = ("ghost-0", "ghost-1")

allowed_strategy = st.one_of(
    st.none(),
    st.just(frozenset()),
    st.just(frozenset(GHOSTS)),
    st.just(frozenset(NAMES)),
    st.frozensets(st.sampled_from(NAMES + GHOSTS)),
)


def _policy(name: str, seed: int):
    if name == "HOOKLESS":
        return FirstComeFirstServedScheduler()
    return policy_by_name(name, **({"seed": seed} if name == "RANDOM" else {}))


def _expected_strategy(name: str, custom: bool) -> type:
    if name in ("RANDOM", "HOOKLESS"):
        return WalkReplay
    if name == "GREEN_SCORE" or custom:
        return FlatElection
    return ResidentRanking


class TestCandidateSetElections:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        policy=st.sampled_from(POLICIES),
        custom=st.booleans(),
        depth=st.integers(min_value=1, max_value=3),
        node_count=st.integers(min_value=1, max_value=8),
        matmul_only=st.one_of(
            st.just([False] * 8), st.lists(st.booleans(), min_size=8, max_size=8)
        ),
        placement=st.lists(st.integers(min_value=0, max_value=6), min_size=8, max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.lists(
            st.tuples(
                st.lists(step_strategy, max_size=6),
                allowed_strategy,
                st.sampled_from(("cpu-burn", "matmul")),
                st.sampled_from(REQUEST_PREFERENCES),
                st.floats(min_value=1e8, max_value=1e13),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_submit_equals_rank_keep_fall_back(
        self, policy, custom, depth, node_count, matmul_only, placement, seed, steps,
    ):
        seds = [
            ServerDaemon(
                node,
                services=("matmul",) if other else ("cpu-burn",),
                estimation_function=_request_aware_estimation if custom and index == 0 else None,
            )
            for index, (node, other) in enumerate(zip(_make_nodes(node_count), matmul_only))
        ]
        electing, reference = (
            _build(seds, placement, depth, _policy(policy, seed)) for _ in range(2)
        )
        running = {sed.name: [] for sed in seds}
        for ops, allowed, service, preference, flop in steps:
            for op, selector, magnitude in ops:
                sed = seds[selector % node_count]
                _apply(op, sed, magnitude, running[sed.name])
            request = ServiceRequest.from_task(
                Task(flop=flop, service=service, user_preference=preference)
            )
            electing.set_candidate_filter(allowed)
            elected = electing.submit(request).elected
            ranked = allowed_ranking(
                reference._current_election(), reference, request, allowed
            )
            assert elected == (ranked[0].server if ranked else None)
            assert _rng_states(electing) == _rng_states(reference)
            electing._current_election().check()
        expected = _expected_strategy(policy, custom)
        assert type(electing._current_election()) is expected
        assert type(reference._current_election()) is expected
