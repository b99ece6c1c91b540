"""Tests for the typed timeline events and the EventTimeline container."""

import dataclasses

import pytest

from repro.scenario.events import (
    EVENT_KINDS,
    EnergyEvent,
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
    def test_tariff_change_is_a_scheduled_energy_event(self):
        event = TariffChange(time=60.0, cost=0.8)
        assert isinstance(event, EnergyEvent)
        assert event.scheduled  # tariffs are known in advance
        assert event.kind == "tariff_change"

    def test_thermal_excursion_is_an_unexpected_energy_event(self):
        event = ThermalExcursion(time=60.0, temperature=30.0)
        assert isinstance(event, EnergyEvent)
        assert not event.scheduled  # heat peaks are unexpected
        assert event.kind == "thermal_excursion"
        assert ThermalExcursion(time=60.0, temperature=28.0, scheduled=True).scheduled

    @pytest.mark.parametrize("cost", [-0.1, 1.2, float("nan")])
    def test_tariff_cost_outside_unit_range_rejected(self, cost):
        with pytest.raises(ValueError, match="cost"):
            TariffChange(time=0.0, cost=cost)

    @pytest.mark.parametrize("cost", [0.0, 1.0])
    def test_tariff_cost_bounds_accepted(self, cost):
        assert TariffChange(time=0.0, cost=cost).cost == cost

    @pytest.mark.parametrize("event", [TariffChange, ThermalExcursion, WorkloadBurst])
    def test_negative_time_rejected(self, event):
        with pytest.raises(ValueError, match="time"):
            event(time=-1.0)

    def test_describe_text(self):
        assert TariffChange(time=60.0, cost=0.8).describe() == (
            "[scheduled] electricity cost -> 0.80 at t=60s"
        )
        assert TariffChange(time=60.0, cost=0.8, scheduled=False).describe() == (
            "[unexpected] electricity cost -> 0.80 at t=60s"
        )
        assert ThermalExcursion(time=60.0, temperature=30.0).describe() == (
            "[unexpected] temperature -> 30.0 degC at t=60s"
        )
        assert ThermalExcursion(time=90.5, temperature=28.25, scheduled=True).describe() == (
            "[scheduled] temperature -> 28.2 degC at t=90s"
        )

    @pytest.mark.parametrize("event", [NodeFailure, NodeRecovery])
    def test_node_event_negative_time_rejected(self, event):
        with pytest.raises(ValueError, match="time"):
            event(time=-1.0, node="orion-0")

    @pytest.mark.parametrize("event, text", [
        (NodeFailure(time=5.0, node="orion-0"), "[unexpected] node orion-0 fails at t=5s"),
        (
            NodeRecovery(time=8.4, node="orion-0", scheduled=True),
            "[scheduled] node orion-0 recovers at t=8s",
        ),
        (
            WorkloadBurst(time=10.0, duration=5.0, factor=2.5),
            "[scheduled] arrival rate x2.5 over t=[10s, 15s)",
        ),
    ], ids=["NodeFailure", "NodeRecovery", "WorkloadBurst"])
    def test_describe_text_of_node_and_burst_events(self, event, text):
        assert event.describe() == text

    def test_energy_event_is_abstract(self):
        with pytest.raises(TypeError):
            EnergyEvent(time=0.0)

    def test_node_events_require_a_node(self):
        with pytest.raises(TimelineError, match="node"):
            NodeFailure(time=1.0)
        with pytest.raises(TimelineError, match="node"):
            NodeRecovery(time=1.0)

    def test_node_failure_is_unexpected(self):
        event = NodeFailure(time=5.0, node="orion-0")
        assert not event.scheduled
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


#: One event of every kind and its serialised mapping, in the key order
#: the timeline files and the content hash are written with.
MAPPINGS = {
    "tariff_change": (
        TariffChange(time=60.0, cost=0.8),
        {"kind": "tariff_change", "time": 60.0, "cost": 0.8, "scheduled": True},
    ),
    "thermal_excursion": (
        ThermalExcursion(time=90.0, temperature=30.0),
        {"kind": "thermal_excursion", "time": 90.0, "temperature": 30.0, "scheduled": False},
    ),
    "node_failure": (
        NodeFailure(time=5.0, node="orion-0"),
        {"kind": "node_failure", "time": 5.0, "node": "orion-0", "scheduled": False},
    ),
    "node_recovery": (
        NodeRecovery(time=8.0, node="orion-0"),
        {"kind": "node_recovery", "time": 8.0, "node": "orion-0", "scheduled": False},
    ),
    "workload_burst": (
        WorkloadBurst(time=10.0, duration=5.0, factor=2.0),
        {
            "kind": "workload_burst", "time": 10.0, "duration": 5.0, "factor": 2.0,
            "scheduled": True,
        },
    ),
}


class TestEventMappings:
    def test_event_kinds_name_every_event_class(self):
        assert sorted(EVENT_KINDS) == sorted(MAPPINGS)
        assert set(EVENT_KINDS.values()) == set(EnergyEvent.__subclasses__())
        for kind, event in EVENT_KINDS.items():
            assert event.kind == kind

    @pytest.mark.parametrize("kind", sorted(MAPPINGS))
    def test_to_mapping_is_kind_time_own_fields_scheduled(self, kind):
        event, mapping = MAPPINGS[kind]
        assert list(event.to_mapping().items()) == list(mapping.items())

    @pytest.mark.parametrize("kind", sorted(MAPPINGS))
    def test_event_round_trips_through_its_mapping(self, kind):
        event, _ = MAPPINGS[kind]
        assert event_from_mapping(event.to_mapping()) == event

    @pytest.mark.parametrize("kind", sorted(MAPPINGS))
    def test_omitted_scheduled_flag_takes_the_kind_default(self, kind):
        event, mapping = MAPPINGS[kind]
        partial = {key: value for key, value in mapping.items() if key != "scheduled"}
        assert event_from_mapping(partial).scheduled is event.scheduled

    @pytest.mark.parametrize("kind", sorted(MAPPINGS))
    @pytest.mark.parametrize("flag", ["no", 1, None])
    def test_scheduled_flag_must_be_a_bool(self, kind, flag):
        # A truthy string such as "no" would otherwise read as scheduled.
        _, mapping = MAPPINGS[kind]
        with pytest.raises(TimelineError, match="scheduled must be true or false"):
            event_from_mapping({**mapping, "scheduled": flag})

    @pytest.mark.parametrize("kind", sorted(MAPPINGS))
    def test_events_are_frozen(self, kind):
        event, _ = MAPPINGS[kind]
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.time = 1.0


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

    def test_hash_moves_with_the_scheduled_flag(self):
        expected = EventTimeline([ThermalExcursion(time=20.0, temperature=30.0)])
        announced = EventTimeline(
            [ThermalExcursion(time=20.0, temperature=30.0, scheduled=True)]
        )
        assert expected.content_hash() != announced.content_hash()

    def test_round_trip_through_mappings(self):
        timeline = EventTimeline([
            TariffChange(time=10.0, cost=0.8),
            ThermalExcursion(time=20.0, temperature=30.0),
            NodeFailure(time=30.0, node="a"),
            NodeRecovery(time=40.0, node="a"),
            WorkloadBurst(time=50.0, duration=5.0, factor=2.0),
        ])
        rebuilt = EventTimeline(event_from_mapping(entry) for entry in timeline.to_mappings())
        assert rebuilt == timeline
        assert rebuilt.content_hash() == timeline.content_hash()
