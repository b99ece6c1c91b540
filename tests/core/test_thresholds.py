"""Tests for the administrator thresholds of Section IV-C."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.provisioning import provisioning_target
from repro.infrastructure.thermal import TEMPERATURE_THRESHOLD


class TestPaperDefaults:
    """The five behaviours of Section IV-C, on the 12-node platform."""

    def test_overheating_caps_at_20_percent(self):
        assert provisioning_target(30.0, 0.3, 12) == ("overheating", 2)

    def test_regular_tariff_allows_40_percent(self):
        assert provisioning_target(20.0, 1.0, 12) == ("regular-tariff", 4)

    def test_off_peak_1_allows_70_percent(self):
        assert provisioning_target(20.0, 0.8, 12) == ("off-peak-1", 8)

    def test_off_peak_2_allows_everything(self):
        assert provisioning_target(20.0, 0.5, 12) == ("off-peak-2", 12)
        assert provisioning_target(20.0, 0.3, 12) == ("off-peak-2", 12)

    def test_overheating_overrides_cheap_energy(self):
        assert provisioning_target(26.0, 0.3, 12)[0] == "overheating"


class TestCandidateCounts:
    def test_paper_rule_counts_for_twelve_nodes(self):
        """The counts quoted in Section IV-C for the 12-node platform."""
        assert provisioning_target(30.0, 1.0, 12)[1] == 2
        assert provisioning_target(20.0, 1.0, 12)[1] == 4
        assert provisioning_target(20.0, 0.8, 12)[1] == 8
        assert provisioning_target(20.0, 0.5, 12)[1] == 12

    @pytest.mark.parametrize("total", [1, 2, 3, 4])
    def test_a_fraction_that_floors_to_zero_keeps_one_node(self, total):
        assert provisioning_target(30.0, 1.0, total) == ("overheating", 1)

    def test_zero_nodes(self):
        assert provisioning_target(30.0, 1.0, 0)[1] == 0
        assert provisioning_target(20.0, 0.5, 0)[1] == 0

    @given(
        temperature=st.floats(min_value=-50, max_value=100),
        cost=st.floats(min_value=0, max_value=1),
        total=st.integers(min_value=0, max_value=10_000),
    )
    def test_count_bounded_property(self, temperature, cost, total):
        _, count = provisioning_target(temperature, cost, total)
        assert 0 <= count <= total
        if total > 0:
            assert count >= 1


#: Every row's label and its count on 0, 1, 12 and 500 nodes.
ROWS = {
    "overheating": {0: 0, 1: 1, 12: 2, 500: 100},
    "regular-tariff": {0: 0, 1: 1, 12: 4, 500: 200},
    "off-peak-1": {0: 0, 1: 1, 12: 8, 500: 350},
    "off-peak-2": {0: 0, 1: 1, 12: 12, 500: 500},
}


class TestEdges:
    """Each bound belongs to the row below it; the next float up crosses it."""

    @pytest.mark.parametrize("total", sorted(ROWS["overheating"]))
    @pytest.mark.parametrize(
        "temperature, hot",
        [
            (TEMPERATURE_THRESHOLD, False),
            (math.nextafter(TEMPERATURE_THRESHOLD, math.inf), True),
        ],
    )
    @pytest.mark.parametrize(
        "cost, label",
        [
            (0.0, "off-peak-2"),
            (0.5, "off-peak-2"),
            (math.nextafter(0.5, 1.0), "off-peak-1"),
            (0.8, "off-peak-1"),
            (math.nextafter(0.8, 1.0), "regular-tariff"),
            (1.0, "regular-tariff"),
        ],
    )
    def test_row_and_count(self, cost, label, temperature, hot, total):
        expected = "overheating" if hot else label
        assert provisioning_target(temperature, cost, total) == (
            expected,
            ROWS[expected][total],
        )
