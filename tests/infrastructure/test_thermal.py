"""Tests for the thermal environment."""

import pytest

from repro.infrastructure.thermal import (
    TEMPERATURE_THRESHOLD,
    ThermalEnvironment,
    ThermalEvent,
)


class TestThermalEnvironment:
    def test_base_temperature_before_any_event(self):
        env = ThermalEnvironment(base_temperature=20.0)
        assert env.temperature(0.0) == 20.0
        assert env.temperature(1e6) == 20.0

    def test_event_steps_temperature(self):
        env = ThermalEnvironment(base_temperature=20.0)
        env.schedule_event(ThermalEvent(time=100.0, temperature=30.0))
        assert env.temperature(99.9) == 20.0
        assert env.temperature(100.0) == 30.0
        assert env.temperature(500.0) == 30.0

    def test_multiple_events_apply_in_order(self):
        env = ThermalEnvironment(base_temperature=20.0)
        env.schedule_event(ThermalEvent(time=200.0, temperature=22.0))
        env.schedule_event(ThermalEvent(time=100.0, temperature=30.0))
        assert env.temperature(150.0) == 30.0
        assert env.temperature(250.0) == 22.0
        assert [event.time for event in env.events] == [100.0, 200.0]

    def test_threshold_matches_paper(self):
        assert TEMPERATURE_THRESHOLD == 25.0

    def test_event_with_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ThermalEvent(time=-1.0, temperature=20.0)
