"""Tests for Algorithm 1 (greedy candidate-server selection)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.candidate_selection import select_candidate_servers
from repro.core.greenperf import GreenPerfRanking, RankedServer
from tests.conftest import make_vector


def ranked(name, power, performance=1e9):
    return RankedServer(
        server=name, greenperf=power / performance, power=power
    )


class TestSelectCandidateServers:
    def test_full_budget_selects_everyone(self):
        servers = [ranked("a", 100.0), ranked("b", 200.0), ranked("c", 300.0)]
        selected = select_candidate_servers(servers, provider_preference=1.0)
        assert [entry.server for entry in selected] == ["a", "b", "c"]

    def test_zero_budget_selects_no_one(self):
        servers = [ranked("a", 100.0)]
        assert select_candidate_servers(servers, provider_preference=0.0) == ()

    def test_partial_budget_walks_greenperf_order(self):
        # Total power 600, budget 0.5 -> 300: select a (100) then b (200)
        # because the accumulated power only reaches the budget after b.
        servers = [ranked("a", 100.0), ranked("b", 200.0), ranked("c", 300.0)]
        selected = select_candidate_servers(servers, provider_preference=0.5)
        assert [entry.server for entry in selected] == ["a", "b"]

    def test_budget_crossing_server_is_included(self):
        """Algorithm 1 tests the budget *before* adding, so the crossing server stays."""
        servers = [ranked("a", 100.0), ranked("b", 100.0)]
        # budget = 0.6 * 200 = 120 -> a (100) is below budget, so b is added too.
        selected = select_candidate_servers(servers, provider_preference=0.6)
        assert [entry.server for entry in selected] == ["a", "b"]

    @given(
        servers=st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=500.0),
                st.floats(min_value=1e8, max_value=1e10),
            ),
            min_size=1,
            max_size=20,
        ),
        preference=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_algorithm_one_over_positive_power_rankings(self, servers, preference):
        ranking = GreenPerfRanking(
            [
                make_vector(server=f"s{index}", mean_power=power, flops_per_core=flops)
                for index, (power, flops) in enumerate(servers)
            ]
        )
        selected = select_candidate_servers(ranking, provider_preference=preference)
        # A prefix of the GreenPerf order ...
        assert selected == ranking.entries[: len(selected)]
        # ... that is empty exactly when the provider grants no power ...
        assert bool(selected) == (preference > 0)
        # ... and whose every server was added while the accumulated power
        # was still below the budget (the last one may cross it).
        required = preference * sum(entry.power for entry in ranking)
        accumulated = 0.0
        for entry in selected:
            assert accumulated < required
            accumulated += entry.power
        assert len(selected) == len(ranking) or accumulated >= required

    def test_accepts_greenperf_ranking_object(self):
        vectors = [
            make_vector(server="frugal", mean_power=100.0),
            make_vector(server="hungry", mean_power=300.0),
        ]
        ranking = GreenPerfRanking(vectors)
        selected = select_candidate_servers(ranking, provider_preference=1.0)
        assert [entry.server for entry in selected] == ["frugal", "hungry"]

    def test_empty_ranking(self):
        assert select_candidate_servers([], provider_preference=1.0) == ()

    def test_preference_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            select_candidate_servers([ranked("a", 1.0)], provider_preference=1.5)

    @given(
        powers=st.lists(st.floats(min_value=1, max_value=500), min_size=1, max_size=30),
        preference=st.floats(min_value=0, max_value=1),
    )
    def test_selected_power_respects_cap_property(self, powers, preference):
        servers = [ranked(f"s{i}", power) for i, power in enumerate(powers)]
        selected = select_candidate_servers(servers, provider_preference=preference)
        total = sum(power for power in powers)
        required = preference * total
        selected_power = sum(entry.power for entry in selected)
        if len(selected) > 1:
            # Without the final (budget-crossing) server the cap holds strictly.
            assert selected_power - selected[-1].power < required
        # The selection is a prefix of the ranking.
        assert [entry.server for entry in selected] == [
            f"s{i}" for i in range(len(selected))
        ]

