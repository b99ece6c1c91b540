"""Tests for the scheduling policies (plug-in schedulers)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.policies import (
    GreenPerfPolicy,
    GreenSchedulerPolicy,
    PerformancePolicy,
    PowerPolicy,
    RandomPolicy,
    available_policies,
    policy_by_name,
)
from repro.middleware.plugin_scheduler import CandidateEntry
from repro.middleware.requests import ServiceRequest
from repro.simulation.task import Task
from tests.conftest import make_vector


def make_request(flop=1e9, preference=0.0):
    return ServiceRequest.from_task(Task(flop=flop, user_preference=preference))


def entry(server, **vector_kwargs):
    return CandidateEntry.from_vector(make_vector(server=server, **vector_kwargs))


class TestPowerPolicy:
    def test_lowest_power_first(self):
        candidates = [
            entry("hungry", mean_power=400.0),
            entry("frugal", mean_power=100.0),
            entry("middle", mean_power=250.0),
        ]
        ranked = PowerPolicy().sort(make_request(), candidates)
        assert [c.server for c in ranked] == ["frugal", "middle", "hungry"]

    def test_busy_nodes_rank_after_free_ones(self):
        candidates = [
            entry("frugal-busy", mean_power=100.0, free_cores=0),
            entry("hungry-free", mean_power=400.0, free_cores=2),
        ]
        ranked = PowerPolicy().sort(make_request(), candidates)
        assert ranked[0].server == "hungry-free"

    def test_ranks_by_the_dynamic_power_not_the_nameplate(self):
        candidates = [
            entry("a", mean_power=100.0, peak_power=500.0),
            entry("b", mean_power=300.0, peak_power=200.0),
        ]
        assert PowerPolicy().sort(make_request(), candidates)[0].server == "a"

    def test_ties_broken_by_waiting_time_then_name(self):
        candidates = [
            entry("b", mean_power=100.0, waiting_time=4.0),
            entry("a", mean_power=100.0, waiting_time=1.0),
        ]
        ranked = PowerPolicy().sort(make_request(), candidates)
        assert [c.server for c in ranked] == ["a", "b"]

    def test_sort_does_not_mutate_input(self):
        candidates = [entry("a", mean_power=300.0), entry("b", mean_power=100.0)]
        original = list(candidates)
        PowerPolicy().sort(make_request(), candidates)
        assert candidates == original


class TestPerformancePolicy:
    def test_fastest_first(self):
        candidates = [
            entry("slow", flops_per_core=1e9),
            entry("fast", flops_per_core=3e9),
        ]
        ranked = PerformancePolicy().sort(make_request(), candidates)
        assert ranked[0].server == "fast"

    def test_ranks_by_per_core_speed_not_total(self):
        candidates = [
            entry("many-slow-cores", flops_per_core=1e9, cores=16),
            entry("few-fast-cores", flops_per_core=3e9, cores=2),
        ]
        ranked = PerformancePolicy().sort(make_request(), candidates)
        assert ranked[0].server == "few-fast-cores"

    def test_busy_nodes_rank_after_free_ones(self):
        candidates = [
            entry("fast-busy", flops_per_core=3e9, free_cores=0),
            entry("slow-free", flops_per_core=1e9, free_cores=1),
        ]
        ranked = PerformancePolicy().sort(make_request(), candidates)
        assert ranked[0].server == "slow-free"


class TestRandomPolicy:
    def test_is_a_permutation(self):
        candidates = [entry(f"n-{i}") for i in range(10)]
        ranked = RandomPolicy(seed=1).sort(make_request(), candidates)
        assert sorted(c.server for c in ranked) == sorted(c.server for c in candidates)

    def test_reproducible_with_seed(self):
        candidates = [entry(f"n-{i}") for i in range(10)]
        first = RandomPolicy(seed=7).sort(make_request(), candidates)
        second = RandomPolicy(seed=7).sort(make_request(), candidates)
        assert [c.server for c in first] == [c.server for c in second]

    def test_different_seeds_give_different_orders(self):
        candidates = [entry(f"n-{i}") for i in range(10)]
        first = RandomPolicy(seed=1).sort(make_request(), candidates)
        second = RandomPolicy(seed=2).sort(make_request(), candidates)
        assert [c.server for c in first] != [c.server for c in second]

    def test_prefers_free_nodes(self):
        candidates = [entry("busy", free_cores=0), entry("free", free_cores=1)]
        for seed in range(5):
            ranked = RandomPolicy(seed=seed).sort(make_request(), candidates)
            assert ranked[0].server == "free"


class TestGreenPerfPolicy:
    def test_best_ratio_first(self):
        candidates = [
            entry("efficient", mean_power=100.0, flops_per_core=2e9),
            entry("fast-hungry", mean_power=500.0, flops_per_core=3e9),
            entry("slow-hungry", mean_power=400.0, flops_per_core=0.5e9),
        ]
        ranked = GreenPerfPolicy().sort(make_request(), candidates)
        assert ranked[0].server == "efficient"
        assert ranked[-1].server == "slow-hungry"

    def test_differs_from_power_when_ratios_disagree(self):
        """A very low-power but extremely slow node wins POWER but loses GreenPerf."""
        candidates = [
            entry("slow-frugal", mean_power=90.0, flops_per_core=0.1e9),
            entry("fast-moderate", mean_power=200.0, flops_per_core=3e9),
        ]
        power_first = PowerPolicy().sort(make_request(), candidates)[0].server
        greenperf_first = GreenPerfPolicy().sort(make_request(), candidates)[0].server
        assert power_first == "slow-frugal"
        assert greenperf_first == "fast-moderate"


class TestGreenSchedulerPolicy:
    def test_neutral_preference_balances_time_and_energy(self):
        candidates = [
            entry("fast-hungry", flops_per_core=4e9, mean_power=400.0),
            entry("slow-frugal", flops_per_core=1e9, mean_power=90.0),
        ]
        ranked = GreenSchedulerPolicy().sort(make_request(flop=1e9), candidates)
        # time*energy: fast-hungry = 0.25 * 100 = 25, slow-frugal = 1 * 90 = 90.
        assert ranked[0].server == "fast-hungry"

    def test_energy_preference_flips_choice(self):
        candidates = [
            entry("fast-hungry", flops_per_core=4e9, mean_power=400.0),
            entry("slow-frugal", flops_per_core=1e9, mean_power=90.0),
        ]
        ranked = GreenSchedulerPolicy().sort(
            make_request(flop=1e9, preference=0.9), candidates
        )
        assert ranked[0].server == "slow-frugal"

    def test_performance_preference_prefers_fast_node(self):
        candidates = [
            entry("fast-hungry", flops_per_core=4e9, mean_power=400.0),
            entry("slow-frugal", flops_per_core=1e9, mean_power=90.0),
        ]
        ranked = GreenSchedulerPolicy().sort(
            make_request(flop=1e9, preference=-0.9), candidates
        )
        assert ranked[0].server == "fast-hungry"

    def test_waiting_queue_penalises_busy_server(self):
        candidates = [
            entry("loaded", flops_per_core=2e9, mean_power=100.0, waiting_time=100.0),
            entry("idle", flops_per_core=2e9, mean_power=110.0, waiting_time=0.0),
        ]
        ranked = GreenSchedulerPolicy().sort(make_request(flop=1e9), candidates)
        assert ranked[0].server == "idle"

    def test_inactive_server_pays_boot_cost(self):
        candidates = [
            entry("off", flops_per_core=2e9, mean_power=100.0, available=False,
                  boot_time=300.0, boot_power=200.0),
            entry("on", flops_per_core=2e9, mean_power=100.0, available=True),
        ]
        ranked = GreenSchedulerPolicy().sort(make_request(flop=1e9), candidates)
        assert ranked[0].server == "on"

    def test_default_preference_applies_when_request_is_neutral(self):
        candidates = [
            entry("fast-hungry", flops_per_core=4e9, mean_power=400.0),
            entry("slow-frugal", flops_per_core=1e9, mean_power=90.0),
        ]
        energy_biased = GreenSchedulerPolicy(default_preference=0.9)
        ranked = energy_biased.sort(make_request(flop=1e9, preference=0.0), candidates)
        assert ranked[0].server == "slow-frugal"


class TestPolicyRegistry:
    def test_policy_by_name_is_case_insensitive(self):
        assert isinstance(policy_by_name("power"), PowerPolicy)
        assert isinstance(policy_by_name("Performance"), PerformancePolicy)
        assert isinstance(policy_by_name("RANDOM"), RandomPolicy)
        assert isinstance(policy_by_name("greenperf"), GreenPerfPolicy)
        assert isinstance(policy_by_name("green_score"), GreenSchedulerPolicy)

    def test_kwargs_forwarded(self):
        policy = policy_by_name("random", seed=5)
        assert isinstance(policy, RandomPolicy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            policy_by_name("nope")

    def test_available_policies_lists_all(self):
        assert set(available_policies()) == {
            "POWER",
            "PERFORMANCE",
            "RANDOM",
            "GREENPERF",
            "GREEN_SCORE",
            # The queue family resolves through the same registry; the
            # names instantiate per-request placement adapters here.
            "FCFS",
            "EASY",
            "CONSERVATIVE",
            "DRF",
        }

    def test_queue_names_resolve_to_placement_adapters(self):
        from repro.middleware.queue_adapter import QueuePlacementAdapter

        for name in ("fcfs", "EASY", "Conservative", "drf"):
            policy = policy_by_name(name)
            assert isinstance(policy, QueuePlacementAdapter)
            assert policy.name == name.upper()


class TestPermutationProperty:
    @given(
        powers=st.lists(st.floats(min_value=10, max_value=500), min_size=1, max_size=15),
        policy_name=st.sampled_from(["POWER", "PERFORMANCE", "GREENPERF", "GREEN_SCORE"]),
    )
    def test_every_policy_returns_a_permutation(self, powers, policy_name):
        candidates = [
            entry(f"n-{i}", mean_power=power) for i, power in enumerate(powers)
        ]
        policy = policy_by_name(policy_name)
        ranked = policy.sort(make_request(), candidates)
        assert sorted(c.server for c in ranked) == sorted(c.server for c in candidates)
        assert len(ranked) == len(candidates)
