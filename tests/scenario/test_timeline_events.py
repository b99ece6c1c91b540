"""Tests for the typed timeline events and the EventTimeline container."""

import pytest

from repro.core.events import ElectricityCostEvent, TemperatureEvent
from repro.scenario.events import (
    EventTimeline,
    NodeFailure,
    NodeRecovery,
    TariffChange,
    ThermalExcursion,
    TimelineError,
    WorkloadBurst,
    event_from_mapping,
)


class TestEventTypes:
    def test_tariff_change_is_a_core_cost_event(self):
        event = TariffChange(time=60.0, cost=0.8)
        assert isinstance(event, ElectricityCostEvent)
        assert event.scheduled  # tariffs are known in advance
        assert event.kind == "tariff_change"

    def test_thermal_excursion_is_a_core_temperature_event(self):
        event = ThermalExcursion(time=60.0, temperature=30.0)
        assert isinstance(event, TemperatureEvent)
        assert not event.scheduled  # heat peaks are unexpected
        assert event.kind == "thermal_excursion"

    def test_scheduled_events_honour_lookahead(self):
        event = TariffChange(time=100.0, cost=0.5)
        assert not event.visible_at(50.0, lookahead=20.0)
        assert event.visible_at(80.0, lookahead=20.0)

    def test_node_events_require_a_node(self):
        with pytest.raises(TimelineError, match="node"):
            NodeFailure(time=1.0)
        with pytest.raises(TimelineError, match="node"):
            NodeRecovery(time=1.0)

    def test_node_failure_is_unexpected(self):
        event = NodeFailure(time=5.0, node="orion-0")
        assert not event.scheduled
        assert not event.visible_at(4.0, lookahead=1e9)
        assert "orion-0" in event.describe()

    def test_burst_window_and_activity(self):
        burst = WorkloadBurst(time=10.0, duration=5.0, factor=2.0)
        assert burst.window == (10.0, 15.0)
        assert not burst.active_at(9.999)
        assert burst.active_at(10.0)
        assert not burst.active_at(15.0)  # half-open window

    @pytest.mark.parametrize("kwargs", [
        {"time": 1.0, "duration": 0.0, "factor": 2.0},
        {"time": 1.0, "duration": 10.0, "factor": 0.0},
        {"time": 1.0, "duration": 10.0, "factor": -1.0},
        {"time": 1.0, "duration": 10.0, "factor": float("inf")},
    ])
    def test_burst_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadBurst(**kwargs)

    def test_event_from_mapping_rejects_unknown_kind(self):
        with pytest.raises(TimelineError, match="unknown event kind"):
            event_from_mapping({"kind": "meteor_strike", "time": 1.0})

    def test_event_from_mapping_rejects_bad_fields(self):
        with pytest.raises(TimelineError, match="invalid"):
            event_from_mapping({"kind": "tariff_change", "time": 1.0, "frobnicate": 2})


class TestEventTimeline:
    def test_events_sorted_by_time(self):
        timeline = EventTimeline([
            ThermalExcursion(time=30.0, temperature=30.0),
            TariffChange(time=10.0, cost=0.8),
            WorkloadBurst(time=20.0, duration=5.0, factor=2.0),
        ])
        assert [event.time for event in timeline] == [10.0, 20.0, 30.0]

    def test_equal_times_keep_insertion_order(self):
        first = TariffChange(time=10.0, cost=0.8)
        second = TariffChange(time=10.0, cost=0.5)
        timeline = EventTimeline([first, second])
        assert timeline.events == (first, second)

    def test_typed_views(self):
        timeline = EventTimeline([
            TariffChange(time=10.0, cost=0.8),
            ThermalExcursion(time=20.0, temperature=30.0),
            NodeFailure(time=30.0, node="a"),
            NodeRecovery(time=40.0, node="a"),
            WorkloadBurst(time=50.0, duration=5.0, factor=2.0),
        ])
        assert [e.kind for e in timeline.tariff_changes] == ["tariff_change"]
        assert [e.kind for e in timeline.thermal_excursions] == ["thermal_excursion"]
        assert [e.kind for e in timeline.node_events] == ["node_failure", "node_recovery"]
        assert [e.kind for e in timeline.bursts] == ["workload_burst"]

    def test_recovery_without_failure_rejected(self):
        with pytest.raises(TimelineError, match="without a preceding"):
            EventTimeline([NodeRecovery(time=10.0, node="a")])

    def test_double_failure_rejected(self):
        with pytest.raises(TimelineError, match="already failed"):
            EventTimeline([
                NodeFailure(time=10.0, node="a"),
                NodeFailure(time=20.0, node="a"),
            ])

    def test_interleaved_failures_on_distinct_nodes_allowed(self):
        timeline = EventTimeline([
            NodeFailure(time=10.0, node="a"),
            NodeFailure(time=15.0, node="b"),
            NodeRecovery(time=20.0, node="a"),
            NodeRecovery(time=25.0, node="b"),
        ])
        assert len(timeline) == 4

    def test_node_left_failed_is_allowed(self):
        # A permanent failure is a legitimate scenario.
        timeline = EventTimeline([NodeFailure(time=10.0, node="a")])
        assert len(timeline) == 1

    def test_arrival_multiplier_stacks_overlapping_bursts(self):
        timeline = EventTimeline([
            WorkloadBurst(time=0.0, duration=100.0, factor=2.0),
            WorkloadBurst(time=50.0, duration=100.0, factor=3.0),
        ])
        assert timeline.arrival_multiplier(25.0) == 2.0
        assert timeline.arrival_multiplier(75.0) == 6.0
        assert timeline.arrival_multiplier(125.0) == 3.0
        assert timeline.arrival_multiplier(200.0) == 1.0

    def test_end_time_counts_burst_windows(self):
        timeline = EventTimeline([
            TariffChange(time=100.0, cost=0.5),
            WorkloadBurst(time=50.0, duration=200.0, factor=2.0),
        ])
        assert timeline.end_time == 250.0

    def test_rejects_non_events(self):
        with pytest.raises(TimelineError, match="EnergyEvent"):
            EventTimeline(["not an event"])

    def test_extended_revalidates(self):
        base = EventTimeline([NodeFailure(time=10.0, node="a")])
        extended = base.extended([NodeRecovery(time=20.0, node="a")])
        assert len(extended) == 2 and len(base) == 1
        with pytest.raises(TimelineError):
            base.extended([NodeFailure(time=20.0, node="a")])


class TestTimelineHashing:
    def test_hash_is_stable(self):
        events = [TariffChange(time=10.0, cost=0.8), NodeFailure(time=20.0, node="a")]
        assert EventTimeline(events).content_hash() == EventTimeline(events).content_hash()

    def test_hash_ignores_construction_order(self):
        a = EventTimeline([
            TariffChange(time=10.0, cost=0.8),
            ThermalExcursion(time=20.0, temperature=30.0),
        ])
        b = EventTimeline([
            ThermalExcursion(time=20.0, temperature=30.0),
            TariffChange(time=10.0, cost=0.8),
        ])
        assert a.content_hash() == b.content_hash()

    def test_hash_moves_with_any_event_change(self):
        base = EventTimeline([TariffChange(time=10.0, cost=0.8)])
        assert base.content_hash() != EventTimeline(
            [TariffChange(time=10.0, cost=0.5)]
        ).content_hash()
        assert base.content_hash() != EventTimeline(
            [TariffChange(time=11.0, cost=0.8)]
        ).content_hash()

    def test_round_trip_through_mappings(self):
        timeline = EventTimeline([
            TariffChange(time=10.0, cost=0.8),
            ThermalExcursion(time=20.0, temperature=30.0),
            NodeFailure(time=30.0, node="a"),
            NodeRecovery(time=40.0, node="a"),
            WorkloadBurst(time=50.0, duration=5.0, factor=2.0),
        ])
        rebuilt = EventTimeline.from_mappings(timeline.to_mappings())
        assert rebuilt == timeline
        assert rebuilt.content_hash() == timeline.content_hash()
