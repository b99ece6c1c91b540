"""Tests for the electricity-cost schedule."""

import pytest

from repro.infrastructure.electricity import (
    OFF_PEAK_1_COST,
    OFF_PEAK_2_COST,
    REGULAR_COST,
    ElectricityCostSchedule,
    TariffPeriod,
)


class TestCostConstants:
    def test_paper_cost_levels(self):
        assert REGULAR_COST == 1.0
        assert OFF_PEAK_1_COST == 0.8
        assert OFF_PEAK_2_COST == 0.5


def schedule_of(*periods):
    """A schedule built the way the scenario wiring builds one: period by period."""
    schedule = ElectricityCostSchedule()
    for start, cost in periods:
        schedule.add_period(TariffPeriod(start=start, cost=cost))
    return schedule


class TestSchedule:
    def test_constant_schedule(self):
        schedule = schedule_of((0.0, 0.7))
        assert schedule.cost_at(0.0) == 0.7
        assert schedule.cost_at(1e9) == 0.7

    def test_regular_cost_before_first_period(self):
        schedule = schedule_of((100.0, 0.5))
        assert schedule.cost_at(50.0) == REGULAR_COST
        assert schedule.cost_at(100.0) == 0.5

    def test_piecewise_lookup(self):
        schedule = schedule_of((100.0, 0.8), (200.0, 0.5))
        assert schedule.cost_at(0.0) == 1.0
        assert schedule.cost_at(150.0) == 0.8
        assert schedule.cost_at(250.0) == 0.5

    def test_periods_sorted_even_if_added_out_of_order(self):
        schedule = schedule_of((200.0, 0.5), (100.0, 0.8))
        assert [schedule.cost_at(t) for t in (50.0, 150.0, 250.0)] == [1.0, 0.8, 0.5]

    @pytest.mark.parametrize("costs", [(0.5, 0.8), (0.8, 0.5), (0.8, 0.8)])
    def test_of_two_periods_with_one_start_the_last_added_is_in_effect(self, costs):
        first, last = costs
        schedule = schedule_of((0.0, 0.7), (100.0, first), (100.0, last), (200.0, 0.6))
        assert [schedule.cost_at(t) for t in (99.0, 100.0, 150.0, 200.0)] == [
            0.7, last, last, 0.6,
        ]

    def test_cost_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TariffPeriod(start=0.0, cost=1.5)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            TariffPeriod(start=-1.0, cost=0.5)
