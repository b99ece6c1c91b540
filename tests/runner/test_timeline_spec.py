"""Tests for the timeline axis of ScenarioSpec (mirrors test_trace_spec)."""

from __future__ import annotations

import json

import pytest

from repro.runner.spec import ScenarioSpec
from repro.scenario.events import NodeFailure, TariffChange
from repro.scenario.events import EventTimeline
from tests.conftest import write_timeline


@pytest.fixture
def timeline_file(tmp_path):
    path = tmp_path / "storm.json"
    write_timeline(
        path,
        EventTimeline([
            TariffChange(time=120.0, cost=0.5),
            NodeFailure(time=300.0, node="orion-0"),
        ]),
    )
    return path


class TestTimelineSpec:
    def test_timeline_hash_computed_from_content(self, timeline_file):
        spec = ScenarioSpec(experiment="adaptive", policy="GREENPERF", timeline=str(timeline_file))
        assert spec.timeline_hash is not None
        assert len(spec.timeline_hash) == 64

    def test_timeline_hash_without_timeline_rejected(self):
        with pytest.raises(ValueError, match="timeline_hash"):
            ScenarioSpec(experiment="adaptive", policy="GREENPERF", timeline_hash="ab" * 32)

    def test_hash_identity_is_content_not_path(self, timeline_file, tmp_path):
        moved = tmp_path / "renamed.json"
        moved.write_text(timeline_file.read_text())
        original = ScenarioSpec(
            experiment="adaptive", policy="GREENPERF", timeline=str(timeline_file)
        )
        relocated = ScenarioSpec(
            experiment="adaptive", policy="GREENPERF", timeline=str(moved)
        )
        assert original.content_hash() == relocated.content_hash()

    def test_editing_the_timeline_moves_the_hash(self, timeline_file):
        before = ScenarioSpec(
            experiment="adaptive", policy="GREENPERF", timeline=str(timeline_file)
        ).content_hash()
        payload = json.loads(timeline_file.read_text())
        payload["events"][0]["cost"] = 0.8
        timeline_file.write_text(json.dumps(payload))
        after = ScenarioSpec(
            experiment="adaptive", policy="GREENPERF", timeline=str(timeline_file)
        ).content_hash()
        assert before != after

    def test_timeline_free_spec_hashes_unchanged(self):
        # Adding the timeline fields must not move historical store keys.
        spec = ScenarioSpec(experiment="adaptive", policy="GREENPERF")
        assert "timeline" not in spec.to_mapping()

    def test_scenario_id_names_the_file(self, timeline_file):
        spec = ScenarioSpec(
            experiment="adaptive", policy="GREENPERF", timeline=str(timeline_file)
        )
        assert "timeline=storm.json" in spec.scenario_id

    def test_replace_rehashes_new_timeline(self, timeline_file, tmp_path):
        other = tmp_path / "other.json"
        write_timeline(other, EventTimeline([TariffChange(time=60.0, cost=0.8)]))
        spec = ScenarioSpec(
            experiment="adaptive", policy="GREENPERF", timeline=str(timeline_file)
        )
        replaced = spec.replace(timeline=str(other))
        assert replaced.timeline_hash != spec.timeline_hash

    def test_missing_timeline_file_reported(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            ScenarioSpec(
                experiment="adaptive",
                policy="GREENPERF",
                timeline=str(tmp_path / "absent.toml"),
            )

    def test_round_trips_through_store_records(self, timeline_file, tmp_path):
        spec = ScenarioSpec(
            experiment="adaptive", policy="GREENPERF", timeline=str(timeline_file)
        )
        rebuilt = ScenarioSpec.from_mapping(spec.to_mapping())
        assert rebuilt == spec
        assert rebuilt.content_hash() == spec.content_hash()

    def test_from_mapping_survives_deleted_file(self, timeline_file):
        spec = ScenarioSpec(
            experiment="adaptive", policy="GREENPERF", timeline=str(timeline_file)
        )
        mapping = spec.to_mapping()
        timeline_file.unlink()
        # The stored hash identifies the timeline without re-reading it.
        rebuilt = ScenarioSpec.from_mapping(mapping)
        assert rebuilt.timeline_hash == spec.timeline_hash
        assert rebuilt.content_hash() == spec.content_hash()
