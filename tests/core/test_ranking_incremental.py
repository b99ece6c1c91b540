"""Property-based proof: resident ranking == full rebuild, bit for bit.

The tentpole optimisation keeps a policy-sorted candidate order resident
across requests (:mod:`repro.middleware.ranking`), repositioning only the
servers whose estimation vectors were invalidated.  Its whole correctness
story is one sentence: after *any* interleaving of node transitions, queue
mutations and power observations, serving the resident order must be
indistinguishable from rebuilding and re-sorting the candidate list from
scratch.  These tests make hypothesis hunt for a counter-example over
hundreds of generated transition streams, comparing server order *and*
rank keys exactly (no tolerance) — any drift between the incremental and
the rebuilt order is a bug, not noise.

A second property closes the loop end to end: a full
:class:`~repro.middleware.driver.MiddlewareSimulation` served by the
resident ranking produces byte-identical metrics to one pinned to the
per-request tree walk (:func:`tests.conftest.force_tree_walk`).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import policy_by_name
from repro.infrastructure.node import Node, NodeState
from repro.infrastructure.platform import grid5000_placement_platform
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.hierarchy import build_hierarchy
from repro.middleware.plugin_scheduler import CandidateEntry, FirstComeFirstServedScheduler
from repro.middleware.estimation import EstimationTags
from repro.middleware.ranking import FlatElection, ResidentRanking, WalkReplay
from repro.middleware.requests import ServiceRequest
from repro.middleware.sed import ServerDaemon, default_estimation_function
from repro.simulation.task import Task
from tests.conftest import (
    TreeWalk,
    election_type,
    flat_hierarchy,
    force_tree_walk,
    make_spec,
    ranking,
)
from tests.conftest import executions

#: Policies exposing a request-independent ``rank_key`` (the resident set):
#: the paper's three plus the queue family's placement adapters.
RANKED_POLICIES = (
    "POWER", "PERFORMANCE", "GREENPERF", "FCFS", "EASY", "CONSERVATIVE", "DRF",
)

#: Transition vocabulary; each op is guarded so illegal transitions are
#: skipped rather than raising (hypothesis explores the legal subspace).
OPS = (
    "enqueue",
    "start",
    "complete",
    "record_power",
    "power_off",
    "boot",
    "boot_done",
    "fail",
    "repair",
)

op_strategy = st.tuples(
    st.sampled_from(OPS),
    st.integers(min_value=0, max_value=63),          # node selector (mod n)
    st.floats(min_value=1.0, max_value=1e3),         # magnitude knob
)


def _make_nodes(count: int) -> list[Node]:
    """A heterogeneous fleet: no two nodes share a rank key by accident."""
    return [
        Node(
            make_spec(
                name=f"node-{index}",
                cluster=f"cluster-{index % 2}",
                cores=2 + index % 3,
                flops_per_core=1.0e9 * (1 + index),
                idle_power=80.0 + 11.0 * index,
                peak_power=150.0 + 37.0 * index,
            )
        )
        for index in range(count)
    ]


def _make_seds(count: int, custom=None) -> list[ServerDaemon]:
    """One SeD per :func:`_make_nodes` node.

    ``custom`` maps a SeD's index to the estimation function it is built with.
    """
    custom = custom or {}
    return [
        ServerDaemon(node, estimation_function=custom.get(index))
        for index, node in enumerate(_make_nodes(count))
    ]


def _apply(op: str, sed: ServerDaemon, magnitude: float, running: list[Task]) -> None:
    """Apply one transition if it is legal in the current state."""
    node = sed.node
    if op == "enqueue":
        sed.queue.enqueue(Task(flop=magnitude * 1e9))
    elif op == "start":
        if node.state is NodeState.ON and node.free_cores > 0:
            task = sed.queue.pop_next()
            if task is not None:
                node.acquire_core()
                sed.queue.mark_running(task)
                running.append(task)
    elif op == "complete":
        if running:
            task = running.pop()
            sed.queue.mark_completed(task)
            node.release_core(busy_seconds=magnitude)
    elif op == "record_power":
        sed.record_request_power(magnitude)
    elif op == "power_off":
        if node.state is NodeState.ON and node.busy_cores == 0:
            node.power_off()
    elif op == "boot":
        if node.state is NodeState.OFF:
            node.begin_boot(0.0)
    elif op == "boot_done":
        if node.state is NodeState.BOOTING:
            node.complete_boot()
    elif op == "fail":
        if node.state is not NodeState.FAILED and not running:
            node.fail()
    elif op == "repair":
        if node.state is NodeState.FAILED:
            node.repair()
    else:  # pragma: no cover - vocabulary drift guard
        raise AssertionError(f"unknown op {op!r}")


def _full_rebuild(policy, seds, request):
    """The reference: re-estimate everything and sort from scratch."""
    entries = []
    for sed in seds:
        if not sed.can_solve(request.service):
            continue
        vector = sed.estimate(request)
        if not vector.available:
            continue
        entries.append(CandidateEntry.from_vector(vector))
    return policy.sort(request, entries)


def _request(flop: float = 4.0e9) -> ServiceRequest:
    return ServiceRequest.from_task(Task(flop=flop))


def _request_aware_estimation(sed: ServerDaemon, request: ServiceRequest):
    """A custom estimation function whose vectors move with the request.

    The waiting time grows with the task's run time on this server, so the
    ranking changes between requests without any invalidation firing.
    """
    vector = default_estimation_function(sed, request)
    waiting = vector.get(EstimationTags.WAITING_TIME)
    run_time = request.task.flop / sed.node.spec.flops_per_core
    vector.set(EstimationTags.WAITING_TIME, waiting + run_time)
    return vector


def _elections(master, request):
    """One election's winner, then a second one's ranked vector contents, in order."""
    elected = master.submit(request).elected
    return elected, [
        (entry.server, dict(entry.estimation.values)) for entry in ranking(master, request)
    ]


class TestIncrementalEqualsRebuild:
    @settings(
        max_examples=250,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        policy_name=st.sampled_from(RANKED_POLICIES),
        node_count=st.integers(min_value=2, max_value=6),
        ops=st.lists(op_strategy, min_size=1, max_size=30),
    )
    def test_resident_order_matches_full_rebuild(self, policy_name, node_count, ops):
        """After every transition, resident order == rebuilt order, exactly."""
        policy = policy_by_name(policy_name)
        seds = _make_seds(node_count)
        running: dict[str, list[Task]] = {sed.name: [] for sed in seds}
        ranking = ResidentRanking(policy, seds)
        request = _request()
        for op, selector, magnitude in ops:
            sed = seds[selector % node_count]
            _apply(op, sed, magnitude, running[sed.name])
            resident = ranking.candidates(request)
            reference = _full_rebuild(policy, seds, request)
            assert resident is not None
            assert [e.server for e in resident] == [e.server for e in reference]
            # Bit-for-bit: the rank keys are tuples of raw floats.
            assert [policy.rank_key(e) for e in resident] == [
                policy.rank_key(e) for e in reference
            ]
            ranking.check()

    @settings(max_examples=50, deadline=None)
    @given(
        policy_name=st.sampled_from(RANKED_POLICIES),
        ops=st.lists(op_strategy, min_size=1, max_size=15),
    )
    def test_master_agent_serves_resident_order(self, policy_name, ops):
        """The MasterAgent election equals the tree walk under transitions."""
        policy = policy_by_name(policy_name)
        seds = _make_seds(4)
        running: dict[str, list[Task]] = {sed.name: [] for sed in seds}
        master = flat_hierarchy(seds, scheduler=policy)
        baseline = force_tree_walk(flat_hierarchy(seds, scheduler=policy))
        for op, selector, magnitude in ops:
            sed = seds[selector % 4]
            _apply(op, sed, magnitude, running[sed.name])
            request = _request()
            fast = master.submit(request)
            master._election.check()
            slow = baseline.submit(request)
            assert fast.elected == slow.elected
            assert [e.server for e in ranking(master, request)] == [
                e.server for e in ranking(baseline, request)
            ]
        assert type(master._election) is ResidentRanking
        assert type(baseline._election) is TreeWalk


class TestRowStoreCheck:
    def test_check_catches_each_broken_invariant(self):
        seds = _make_seds(3)
        ranking = ResidentRanking(policy_by_name("POWER"), seds)
        ranking.refresh(_request())
        ranking.check()
        seds[0].record_request_power(999.0)  # moves its POWER key
        with pytest.raises(AssertionError, match="dirty"):
            ranking.check()
        ranking._dirty.clear()  # a missed notification
        with pytest.raises(AssertionError, match="stale row"):
            ranking.check()
        ranking._dirty.add(seds[0])
        ranking.refresh(_request())
        ranking._keys.reverse()
        with pytest.raises(AssertionError, match="out of order"):
            ranking.check()
        ranking._keys.reverse()
        ranking.check()


class TestChooser:
    def test_rank_key_policies_get_the_resident_ranking(self):
        for name in RANKED_POLICIES:
            master = flat_hierarchy(_make_seds(3), scheduler=policy_by_name(name))
            assert master.submit(_request()).elected is not None
            assert type(master._election) is ResidentRanking, name

    def test_policies_without_a_total_order_replay_the_walk(self):
        for policy in (policy_by_name("RANDOM", seed=7), FirstComeFirstServedScheduler()):
            master = flat_hierarchy(_make_seds(3), scheduler=policy)
            assert master.submit(_request()).elected is not None
            assert type(master._election) is WalkReplay, policy.name


class TestElectionPath:
    """The strategy's ``path``: one case per ``choose_election`` rule."""

    def test_rank_key_over_default_estimation_is_resident(self):
        master = flat_hierarchy(_make_seds(3), scheduler=policy_by_name("POWER"))
        assert election_type(master) is ResidentRanking

    def test_rank_key_over_a_custom_estimation_function_is_flat(self):
        seds = _make_seds(3, {2: _request_aware_estimation})
        master = flat_hierarchy(seds, scheduler=policy_by_name("GREENPERF"))
        assert election_type(master) is FlatElection

    def test_score_inputs_and_score_keys_are_flat(self):
        master = flat_hierarchy(
            _make_seds(3), scheduler=policy_by_name("GREEN_SCORE")
        )
        assert election_type(master) is FlatElection

    def test_anything_else_replays_the_walk(self):
        for policy in (policy_by_name("RANDOM", seed=7), FirstComeFirstServedScheduler()):
            master = flat_hierarchy(_make_seds(3), scheduler=policy)
            assert election_type(master) is WalkReplay, policy.name

    def test_the_resident_ranking_refuses_a_custom_estimation_function(self):
        seds = _make_seds(2, {1: _request_aware_estimation})
        with pytest.raises(ValueError, match="FlatElection"):
            ResidentRanking(policy_by_name("POWER"), seds)


class TestCustomEstimation:
    """A ``rank_key`` policy over custom estimation functions: flat, == walk."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        policy_name=st.sampled_from(RANKED_POLICIES),
        steps=st.lists(
            st.tuples(
                st.lists(op_strategy, max_size=5),
                st.floats(min_value=1e8, max_value=1e12),
            ),
            min_size=2,
            max_size=8,
        ),
    )
    def test_flat_pass_matches_tree_walk(self, policy_name, steps):
        """With one SeD built with a custom function, elections == walk."""
        seds = _make_seds(4, {1: _request_aware_estimation})
        running: dict[str, list[Task]] = {sed.name: [] for sed in seds}
        policy = policy_by_name(policy_name)
        master = flat_hierarchy(seds, scheduler=policy)
        walk = force_tree_walk(flat_hierarchy(seds, scheduler=policy))
        for ops, flop in steps:
            for op, selector, magnitude in ops:
                sed = seds[selector % 4]
                _apply(op, sed, magnitude, running[sed.name])
            request = _request(flop)
            assert _elections(master, request) == _elections(walk, request)
        # The walk keeps no listener: the flat election's is the only one.
        assert type(master._election) is FlatElection
        assert seds[0]._invalidation_listeners == [master._election._dirty.add]


class TestServiceFilter:
    def test_mixed_services_filter_the_resident_order(self):
        nodes = [Node(make_spec(name=f"svc-{i}", flops_per_core=1e9 * (i + 1))) for i in range(3)]
        seds = [
            ServerDaemon(nodes[0], services=("cpu-burn",)),
            ServerDaemon(nodes[1], services=("cpu-burn", "matmul")),
            ServerDaemon(nodes[2], services=("matmul",)),
        ]
        policy = policy_by_name("PERFORMANCE")
        ranking = ResidentRanking(policy, seds)
        burn = ranking.candidates(ServiceRequest.from_task(Task(service="cpu-burn")))
        matmul = ranking.candidates(ServiceRequest.from_task(Task(service="matmul")))
        assert {e.server for e in burn} == {"svc-0", "svc-1"}
        assert {e.server for e in matmul} == {"svc-1", "svc-2"}


class TestEndToEndEquivalence:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        policy_name=st.sampled_from(RANKED_POLICIES),
        rows=st.lists(
            st.tuples(
                st.floats(min_value=1e9, max_value=1e11),   # flop
                st.floats(min_value=0.0, max_value=120.0),  # arrival
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_simulation_metrics_identical_resident_and_walked(
        self, policy_name, rows
    ):
        """Resident and tree-walk full simulations agree exactly."""
        results = []
        for resident in (True, False):
            platform = grid5000_placement_platform(nodes_per_cluster=1)
            master, seds = build_hierarchy(
                platform, scheduler=policy_by_name(policy_name)
            )
            if not resident:
                force_tree_walk(master)
            simulation = MiddlewareSimulation(
                platform, master, seds, sample_period=10.0
            )
            simulation.submit_workload(
                [Task(flop=flop, arrival_time=arrival) for flop, arrival in rows]
            )
            result = simulation.run()
            # Task ids are globally auto-assigned, so compare the placement
            # sequence (submission order is deterministic), not the ids.
            placements = tuple(e.node for e in executions(simulation.metrics))
            results.append(
                (result.metrics.makespan, result.total_energy, placements)
            )
            assert type(master._election) is (ResidentRanking if resident else TreeWalk)
        assert results[0] == results[1]
