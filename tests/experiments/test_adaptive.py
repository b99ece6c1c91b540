"""Tests for the adaptive resource-provisioning experiment (Figure 9).

The full 260-minute scenario runs in the benchmark; tests exercise a
shortened scenario that still hits every event type.
"""

import pytest

from repro.experiments.adaptive import adaptive_session, default_adaptive_timeline
from repro.lab.compat import session_for_spec
from repro.runner.spec import ScenarioSpec
from repro.scenario.events import EventTimeline, TariffChange, ThermalExcursion
from repro.scenario.io import bundled_timeline
from tests.conftest import write_timeline

_MIN = 60.0

SHORT_TIMELINE = EventTimeline([
    # Event times leave the first check (t=0, look-ahead 20 min) on the
    # regular tariff and give the heat excursion three checks to ramp
    # the pool all the way down to 2 nodes.
    TariffChange(time=25 * _MIN, cost=0.8, scheduled=True),
    TariffChange(time=35 * _MIN, cost=0.5, scheduled=True),
    ThermalExcursion(time=45 * _MIN, temperature=30.0, scheduled=False),
    ThermalExcursion(time=75 * _MIN, temperature=22.0, scheduled=False),
])


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    timeline = tmp_path_factory.mktemp("adaptive") / "short.json"
    write_timeline(timeline, SHORT_TIMELINE)
    spec = ScenarioSpec(
        experiment="adaptive",
        policy="GREENPERF",
        horizon=80 * _MIN,
        timeline=str(timeline),
        overrides={
            "check_period": 600.0,
            "lookahead": 1200.0,
            "task_flop": 2.0e11,
            "client_tick": 120.0,
            "sample_period": 30.0,
        },
    )
    return session_for_spec(spec).run()


PAPER = ScenarioSpec(experiment="adaptive", policy="GREENPERF")


class TestDefaultScenario:
    def test_default_events_match_paper(self):
        events = default_adaptive_timeline().events
        assert len(events) == 4
        costs = [e for e in events if isinstance(e, TariffChange)]
        temps = [e for e in events if isinstance(e, ThermalExcursion)]
        assert [c.cost for c in costs] == [0.8, 0.5]
        assert all(c.scheduled for c in costs)
        assert all(not t.scheduled for t in temps)
        assert temps[0].temperature > 25.0
        assert temps[1].temperature < 25.0

    def test_default_timeline_is_the_bundled_figure9(self):
        assert adaptive_session(PAPER).timeline == bundled_timeline("figure9")

    def test_default_scenario_covers_260_minutes(self):
        session = adaptive_session(PAPER)
        assert session.horizon == 260 * 60.0
        assert session.provisioning.check_period == 600.0
        assert session.provisioning.lookahead == 1200.0
        assert session.provisioning.manage_power

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"duration": 0.0}, "duration must be > 0"),
            ({"nodes_per_cluster": 0}, "nodes_per_cluster must be >= 1"),
            ({"check_period": 0.0}, "check_period must be > 0"),
            ({"task_flop": -1.0}, "task_flop must be > 0"),
            ({"client_tick": 0.0}, "client_tick must be > 0"),
            ({"sample_period": 0.0}, "sample_period must be > 0"),
            ({"base_temperature": "hot"}, "base_temperature must be a real number"),
        ],
    )
    def test_validation_precedes_the_run(self, override, message):
        with pytest.raises((ValueError, TypeError), match=message):
            session_for_spec(PAPER.replace(overrides=override))


class TestShortScenario:
    def test_checks_happen_every_period(self, result):
        times = [time for time, _ in result.candidate_series]
        assert times == pytest.approx([i * 600.0 for i in range(len(times))])
        assert len(times) >= 8

    def test_starts_with_regular_tariff_pool(self, result):
        """Cost 1.0 -> 40 % of the 12 nodes -> 4 candidates."""
        assert result.candidate_series[0][1] == 4
        assert result.total_nodes == 12

    def test_candidates_grow_after_cost_drops(self, result):
        """Events 1-2: the pool ramps towards 8 and then 12 candidates."""
        during_cheap = result.candidates_at(45 * _MIN)
        assert during_cheap > 4
        peak = max(count for _, count in result.candidate_series)
        assert peak == 12

    def test_heat_event_shrinks_pool(self, result):
        """Event 3: overheating caps the pool at 2 nodes (20 % of 12)."""
        low = min(
            count for time, count in result.candidate_series if time >= 45 * _MIN
        )
        assert low == 2

    def test_recovery_regrows_pool(self, result):
        """Event 4: once the temperature is back in range the pool regrows."""
        final = result.candidate_series[-1][1]
        assert final > 2

    def test_candidate_count_never_exceeds_platform(self, result):
        assert all(0 <= count <= 12 for _, count in result.candidate_series)

    def test_power_tracks_candidate_pool(self, result):
        """The measured power is higher with 12 candidates than with 2."""
        high = result.mean_power_between(40 * _MIN, 50 * _MIN)
        low = result.mean_power_between(65 * _MIN, 70 * _MIN)
        assert high > low

    def test_tasks_complete_and_energy_recorded(self, result):
        assert result.completed_tasks > 0
        assert result.total_energy > 0.0

    def test_planning_entries_mirror_checks(self, result):
        assert len(result.planning_entries) == len(result.candidate_series)
        for entry, (time, count) in zip(result.planning_entries, result.candidate_series):
            assert entry.timestamp == time
            assert entry.candidates == count

    def test_candidates_at_interpolates_steps(self, result):
        assert result.candidates_at(0.0) == result.candidate_series[0][1]
        assert result.candidates_at(1e9) == result.candidate_series[-1][1]
