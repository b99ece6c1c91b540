"""Tests for the linear power model."""

import pytest
from hypothesis import given, strategies as st

from repro.infrastructure.power_model import LinearPowerModel


class TestLinearPowerModel:
    def test_idle_power_at_zero_utilization(self):
        model = LinearPowerModel(idle=100.0, peak=250.0)
        assert model.power_at(0.0) == 100.0

    def test_peak_power_at_full_utilization(self):
        model = LinearPowerModel(idle=100.0, peak=250.0)
        assert model.power_at(1.0) == 250.0

    def test_half_utilization_is_midpoint(self):
        model = LinearPowerModel(idle=100.0, peak=200.0)
        assert model.power_at(0.5) == pytest.approx(150.0)

    def test_zero_dynamic_range_is_allowed(self):
        model = LinearPowerModel(idle=150.0, peak=150.0)
        assert model.power_at(0.7) == 150.0

    def test_rejects_peak_below_idle(self):
        with pytest.raises(ValueError):
            LinearPowerModel(idle=200.0, peak=100.0)

    def test_rejects_negative_idle(self):
        with pytest.raises(ValueError):
            LinearPowerModel(idle=-1.0, peak=100.0)

    def test_rejects_utilization_out_of_range(self):
        model = LinearPowerModel(idle=100.0, peak=200.0)
        with pytest.raises(ValueError):
            model.power_at(1.5)
        with pytest.raises(ValueError):
            model.power_at(-0.1)

    @given(
        st.floats(min_value=0, max_value=500),
        st.floats(min_value=0, max_value=500),
        st.floats(min_value=0, max_value=1),
    )
    def test_power_always_between_idle_and_peak(self, idle, extra, utilization):
        model = LinearPowerModel(idle=idle, peak=idle + extra)
        power = model.power_at(utilization)
        assert model.idle - 1e-9 <= power <= model.peak + 1e-9

    @given(
        st.floats(min_value=0, max_value=500),
        st.floats(min_value=1, max_value=500),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_power_is_monotone_in_utilization(self, idle, extra, u1, u2):
        model = LinearPowerModel(idle=idle, peak=idle + extra)
        lo, hi = sorted((u1, u2))
        assert model.power_at(lo) <= model.power_at(hi) + 1e-9
