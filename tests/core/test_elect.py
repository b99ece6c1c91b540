"""Property-based proof: each strategy's ``elect`` is the head of its ``candidates``.

The Master Agent asks its election strategy for the winner alone
(``elect(request)``; ``tests/core/test_candidate_set.py`` covers its
candidate-set argument), while ``tests/core/test_ranking_incremental.py``,
``tests/core/test_flat_election.py`` and ``tests/core/test_walk_replay.py``
prove the whole ranking (``candidates(request)``) equal to the tree walk.
These tests close the loop.  Twin hierarchies over the same SeDs, one
calling ``elect`` and one calling ``candidates``, must agree after every
transition on the winner (the ranking's head, or ``None`` when it is
empty) or on the error raised, and a RANDOM twin's generator state must
match after every election:

* the resident ranking under POWER;
* the flat election under GREEN_SCORE (with equal server states, score
  ties broken by name, and rows the fast path cannot score — an int value
  that scores through the validators, a negative or a missing one that
  raises), and under a ``rank_key`` policy over a custom estimation
  function;
* the replay under RANDOM and the hook-less FCFS scheduler;

over hierarchies of depth 1–3.  Every path above shares GREEN_SCORE's
memoised ``score_keys``, so a last property pins it to Equations 4–6
evaluated row by row through the scalar functions.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import GreenSchedulerPolicy, PowerPolicy, RandomPolicy, policy_by_name
from repro.middleware.agents import LocalAgent, MasterAgent
from repro.middleware.estimation import EstimationTags
from repro.middleware.plugin_scheduler import CandidateEntry, FirstComeFirstServedScheduler
from repro.middleware.ranking import FlatElection, ResidentRanking, WalkReplay
from repro.middleware.requests import ServiceRequest
from repro.middleware.sed import ServerDaemon, default_estimation_function
from repro.simulation.task import Task
from tests.conftest import make_vector
from tests.equations import completion_time, energy_consumption, score
from tests.core.test_flat_election import (
    DEFAULT_PREFERENCES,
    LIFECYCLE,
    REQUEST_PREFERENCES,
    _identical_nodes,
    _identical_seds,
)
from tests.core.test_ranking_incremental import (
    RANKED_POLICIES,
    _apply,
    _make_nodes,
    _make_seds,
    _request_aware_estimation,
    op_strategy,
)

#: Each case: the strategy class its scheduler gets.
CASES = {
    "POWER": ResidentRanking,
    "GREEN_SCORE": FlatElection,
    "CUSTOM_RANK_KEY": FlatElection,
    "RANDOM": WalkReplay,
    "FCFS": WalkReplay,
}

#: Estimation functions that bend one value of the default vector.  The
#: bent value carries the SeD's index, so an error names its row.
ODD_KINDS = ("int", "negative", "missing")


def _odd_estimation(kind: str, index: int):
    """A custom estimation function whose vector the score fast path rejects.

    ``int`` stores an exact int (scored through the validators, which
    accept it); ``negative`` a waiting time of ``-(index + 1)`` (a
    ValueError naming the value when the row is scored); ``missing`` drops
    the per-core speed (the SeD's required-tag check raises, naming the
    server, when it estimates).
    """

    def estimate(sed, request):
        vector = default_estimation_function(sed, request)
        values = vector.values
        if kind == "int":
            values[EstimationTags.FLOPS_PER_CORE] = int(values[EstimationTags.FLOPS_PER_CORE])
        elif kind == "negative":
            values[EstimationTags.WAITING_TIME] = -(index + 1.0)
        else:
            del values[EstimationTags.FLOPS_PER_CORE]
        return vector

    return estimate


def _scheduler(case, seed, rank_policy, default_preference):
    """A fresh scheduler for ``case``."""
    return {
        "POWER": PowerPolicy,
        "GREEN_SCORE": lambda: GreenSchedulerPolicy(default_preference=default_preference),
        "CUSTOM_RANK_KEY": lambda: policy_by_name(rank_policy),
        "RANDOM": lambda: RandomPolicy(seed=seed),
        "FCFS": FirstComeFirstServedScheduler,
    }[case]()


def _build(seds, placement, depth, scheduler):
    """A ``depth``-level hierarchy sorting with ``scheduler``.

    Agent 0 is the Master Agent; depth 2 adds two Local Agents under it,
    depth 3 a child under each.  ``placement[i]`` picks SeD ``i``'s agent.
    """
    master = MasterAgent(scheduler=scheduler)
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


def _rng_states(master):
    """The generator state of the Master Agent's RANDOM scheduler, if it has one."""
    scheduler = master.scheduler
    return scheduler._rng.bit_generator.state if isinstance(scheduler, RandomPolicy) else None


def _view(entry):
    """An entry's server and vector contents (``None`` stays ``None``)."""
    return None if entry is None else (entry.server, dict(entry.estimation.values))


def _elected(master, request):
    """``elect``'s winner, or the error it raised."""
    try:
        return _view(master._current_election().elect(request))
    except (KeyError, TypeError, ValueError) as error:  # the twin must raise it too
        return type(error), str(error)


def _head(master, request):
    """The head of ``candidates`` (``None`` when empty), or the error it raised."""
    try:
        ranking = master._current_election().candidates(request)
    except (KeyError, TypeError, ValueError) as error:
        return type(error), str(error)
    return _view(ranking[0]) if ranking else None


#: One step of a run: a queue/power transition or a node lifecycle step.
step_strategy = st.one_of(
    op_strategy,
    st.tuples(
        st.sampled_from(LIFECYCLE),
        st.integers(min_value=0, max_value=63),
        st.floats(min_value=1.0, max_value=1e3),
    ),
)


class TestElectIsTheHeadOfTheRanking:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        case=st.sampled_from(sorted(CASES)),
        depth=st.integers(min_value=1, max_value=3),
        node_count=st.integers(min_value=1, max_value=8),
        twins=st.booleans(),
        # Half the fleets offer uniform services and score on the fast
        # path: the flat election's input groups only serve those.
        matmul_only=st.one_of(
            st.just([False] * 8), st.lists(st.booleans(), min_size=8, max_size=8)
        ),
        placement=st.lists(st.integers(min_value=0, max_value=6), min_size=8, max_size=8),
        odd=st.one_of(
            st.just([None] * 8),
            st.lists(st.sampled_from((None, *ODD_KINDS)), min_size=8, max_size=8),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rank_policy=st.sampled_from(RANKED_POLICIES),
        default_preference=st.sampled_from(DEFAULT_PREFERENCES),
        steps=st.lists(
            st.tuples(
                st.lists(step_strategy, max_size=6),
                st.sampled_from(("cpu-burn", "matmul")),
                st.sampled_from(REQUEST_PREFERENCES),
                st.floats(min_value=1e8, max_value=1e13),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_elect_equals_the_head_of_candidates(
        self, case, depth, node_count, twins, matmul_only, placement, odd, seed,
        rank_policy, default_preference, steps,
    ):
        def function(index, kind):
            """The estimation function SeD ``index`` is built with."""
            if kind is not None and case != "POWER":  # resident: default estimation
                return _odd_estimation(kind, index)
            if index == 0 and case == "CUSTOM_RANK_KEY":
                return _request_aware_estimation
            return None

        nodes = _identical_nodes(node_count) if twins else _make_nodes(node_count)
        seds = [
            ServerDaemon(
                node,
                services=("matmul",) if other else ("cpu-burn",),
                estimation_function=function(index, kind),
            )
            for index, (node, other, kind) in enumerate(zip(nodes, matmul_only, odd))
        ]
        electing, ranking = (
            _build(
                seds,
                placement,
                depth,
                _scheduler(case, seed, rank_policy, default_preference),
            )
            for _ in range(2)
        )
        running = {sed.name: [] for sed in seds}
        for ops, service, preference, flop in steps:
            for op, selector, magnitude in ops:
                sed = seds[selector % node_count]
                _apply(op, sed, magnitude, running[sed.name])
            request = ServiceRequest.from_task(
                Task(flop=flop, service=service, user_preference=preference)
            )
            assert _elected(electing, request) == _head(ranking, request)
            assert _rng_states(electing) == _rng_states(ranking)
            electing._current_election().check()
        assert type(electing._current_election()) is CASES[case]


def _request(flop=4.0e9):
    return ServiceRequest.from_task(Task(flop=flop))


class TestGreenScoreElections:
    def test_score_ties_break_by_server_name(self):
        seds = _identical_seds(4)
        master = _build(seds[::-1], (0, 1, 2, 1), 2, GreenSchedulerPolicy())
        election = master._current_election()
        assert election.elect(_request()).server == "twin-0"
        assert [entry.server for entry in election.candidates(_request())] == [
            "twin-0", "twin-1", "twin-2", "twin-3",
        ]

    @pytest.mark.parametrize("method", ["elect", "candidates"])
    def test_the_first_unscorable_row_in_walk_order_raises(self, method):
        seds = _make_seds(
            5,
            {
                3: _odd_estimation("negative", 3),
                1: _odd_estimation("negative", 1),
                4: _odd_estimation("int", 4),
            },
        )
        master = _build(seds, (1, 2, 0, 0, 0), 2, GreenSchedulerPolicy())
        election = master._current_election()
        # Walk order: the Master Agent's SeDs (2, 3, 4), then la-0's (0), la-1's (1).
        with pytest.raises(ValueError, match=r"waiting_time must be >= 0, got -4\.0"):
            getattr(election, method)(_request())

    def test_an_int_value_scores_through_the_validators(self):
        seds = _make_seds(3, {2: _odd_estimation("int", 2)})
        master = _build(seds, (0, 0, 0), 1, GreenSchedulerPolicy())
        election = master._current_election()
        ranking = election.candidates(_request())
        assert len(ranking) == 3
        assert _view(election.elect(_request())) == _view(ranking[0])

    def test_no_candidate_elects_none(self):
        master = _build(_make_seds(2), (0, 0), 1, GreenSchedulerPolicy())
        request = ServiceRequest.from_task(Task(service="matmul"))
        assert master._current_election().elect(request) is None
        assert master.submit(request).elected is None


#: A small pool of server states, so drawn fleets repeat states often.
STATES = st.tuples(
    st.sampled_from((1.0e9, 2.5e9)),  # flops per core
    st.sampled_from((90.0, 200.0)),  # mean power
    st.sampled_from((0.0, 30.0)),  # waiting time
    st.booleans(),  # node available
)


class TestScoreKeys:
    @settings(max_examples=200, deadline=None)
    @given(
        states=st.lists(STATES, max_size=12),
        names=st.permutations([f"s-{index:02d}" for index in range(12)]),
        preference=st.sampled_from(REQUEST_PREFERENCES),
        default_preference=st.sampled_from((0.0, 0.25, -0.7)),
        flop=st.floats(min_value=1e8, max_value=1e13),
    )
    def test_memoised_keys_equal_the_scalar_equations(
        self, states, names, preference, default_preference, flop
    ):
        """One score per distinct state, yet every key is Equations 4–6 bit for bit."""
        vectors = [
            make_vector(
                name, flops_per_core=flops, mean_power=power, waiting_time=waiting,
                available=available,
            )
            for name, (flops, power, waiting, available) in zip(names, states)
        ]
        policy = GreenSchedulerPolicy(default_preference=default_preference)
        request = ServiceRequest.from_task(Task(flop=flop, user_preference=preference))
        rows = [policy.score_inputs(CandidateEntry.from_vector(vector)) for vector in vectors]
        effective = preference if preference != 0.0 else default_preference
        expected = []
        for position, vector in enumerate(vectors):
            values = vector.values
            active = values[EstimationTags.NODE_AVAILABLE] >= 0.5
            flops = values[EstimationTags.FLOPS_PER_CORE]
            boot_time = values[EstimationTags.BOOT_TIME]
            time = completion_time(
                flop, flops, active=active,
                waiting_time=values[EstimationTags.WAITING_TIME], boot_time=boot_time,
            )
            energy = energy_consumption(
                flop, flops, active=active,
                full_load_power=values[EstimationTags.MEAN_POWER],
                boot_time=boot_time, boot_power=values[EstimationTags.BOOT_POWER],
            )
            expected.append((score(time, energy, effective), vector.server, position))
        assert policy.score_keys(request, rows) == expected
        assert [entry.server for entry in policy.sort(request, [row[0] for row in rows])] == [
            server for _, server, _ in sorted(expected)
        ]
