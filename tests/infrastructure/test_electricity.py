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


class TestSchedule:
    def test_constant_schedule(self):
        schedule = ElectricityCostSchedule([TariffPeriod(start=0.0, cost=0.7)])
        assert schedule.cost_at(0.0) == 0.7
        assert schedule.cost_at(1e9) == 0.7

    def test_regular_cost_before_first_period(self):
        schedule = ElectricityCostSchedule([TariffPeriod(start=100.0, cost=0.5)])
        assert schedule.cost_at(50.0) == REGULAR_COST
        assert schedule.cost_at(100.0) == 0.5

    def test_piecewise_lookup(self):
        schedule = ElectricityCostSchedule(
            [
                TariffPeriod(start=100.0, cost=0.8),
                TariffPeriod(start=200.0, cost=0.5),
            ]
        )
        assert schedule.cost_at(0.0) == 1.0
        assert schedule.cost_at(150.0) == 0.8
        assert schedule.cost_at(250.0) == 0.5

    def test_periods_sorted_even_if_added_out_of_order(self):
        schedule = ElectricityCostSchedule()
        schedule.add_period(TariffPeriod(start=200.0, cost=0.5))
        schedule.add_period(TariffPeriod(start=100.0, cost=0.8))
        assert [schedule.cost_at(t) for t in (50.0, 150.0, 250.0)] == [1.0, 0.8, 0.5]

    def test_cost_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TariffPeriod(start=0.0, cost=1.5)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            TariffPeriod(start=-1.0, cost=0.5)
