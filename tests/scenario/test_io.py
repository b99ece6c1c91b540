"""Tests for timeline file loading and bundled scenarios."""

import pytest

from repro.cli import main
from repro.scenario.events import (
    EventTimeline,
    NodeFailure,
    TariffChange,
    TimelineError,
    WorkloadBurst,
)
from repro.scenario.io import (
    bundled_timeline,
    bundled_timeline_path,
    load_timeline,
    timeline_file_hash,
)
from tests.conftest import write_timeline

TOML_DOC = """
title = "test"

[[events]]
kind = "tariff_change"
time = 60.0
cost = 0.8

[[events]]
kind = "node_failure"
time = 120.0
node = "orion-0"
"""

JSON_DOC = """
{
  "title": "test",
  "events": [
    {"kind": "tariff_change", "time": 60.0, "cost": 0.8},
    {"kind": "node_failure", "time": 120.0, "node": "orion-0"}
  ]
}
"""


class TestLoadTimeline:
    def test_toml_and_json_parse_to_the_same_timeline(self, tmp_path):
        toml_path = tmp_path / "t.toml"
        toml_path.write_text(TOML_DOC)
        json_path = tmp_path / "t.json"
        json_path.write_text(JSON_DOC)
        assert load_timeline(toml_path) == load_timeline(json_path)

    def test_hash_is_format_independent(self, tmp_path):
        toml_path = tmp_path / "t.toml"
        toml_path.write_text(TOML_DOC)
        json_path = tmp_path / "t.json"
        json_path.write_text(JSON_DOC)
        assert timeline_file_hash(toml_path) == timeline_file_hash(json_path)

    def test_hash_moves_when_an_event_changes(self, tmp_path):
        path = tmp_path / "t.toml"
        path.write_text(TOML_DOC)
        before = timeline_file_hash(path)
        path.write_text(TOML_DOC.replace("cost = 0.8", "cost = 0.5"))
        assert timeline_file_hash(path) != before

    def test_hash_survives_reformatting(self, tmp_path):
        path = tmp_path / "t.toml"
        path.write_text(TOML_DOC)
        before = timeline_file_hash(path)
        path.write_text(TOML_DOC.replace("\n\n", "\n# comment\n\n"))
        assert timeline_file_hash(path) == before

    def test_missing_file_has_path_context(self, tmp_path):
        with pytest.raises(TimelineError, match="cannot read"):
            load_timeline(tmp_path / "absent.toml")

    def test_invalid_toml_reported(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[[events]\nkind =")
        with pytest.raises(TimelineError, match="invalid TOML"):
            load_timeline(path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(TimelineError, match="invalid JSON"):
            load_timeline(path)

    def test_missing_events_array_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('title = "no events"\n')
        with pytest.raises(TimelineError, match="'events' array"):
            load_timeline(path)

    def test_invalid_event_reports_file(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('[[events]]\nkind = "warp_drive"\ntime = 1.0\n')
        with pytest.raises(TimelineError, match="bad.toml.*unknown event kind"):
            load_timeline(path)

    @pytest.mark.parametrize(
        "document, message",
        [
            ('{"events": [1]}', "event 0: an event must be a table"),
            ('{"events": [{"kind": ["x"], "time": 1.0}]}', "event 0: unknown event kind"),
            (
                '{"events": ' + "[" * 100_000 + "]" * 100_000 + "}",
                "invalid JSON: nested too deeply",
            ),
            (
                '{"events": [{"kind": "node_failure", "time": 1.0, "node": 5}]}',
                "event 0: invalid node_failure event .*node must be a string",
            ),
            (
                '{"events": [{"kind": "tariff_change", "time": 1.0, "cost": 0.8},'
                ' {"kind": "tariff_change", "time": NaN, "cost": 0.5}]}',
                "event 1: invalid tariff_change event .*time must be finite",
            ),
            ("[1]", "a timeline file must be a table/object"),
            ('{"events": 5}', "a timeline file needs a top-level 'events' array"),
            ('{"events": [{"time": 1.0}]}', "event 0: unknown event kind None"),
            ('{"events": [{"kind": {}, "time": 1.0}]}', r"event 0: unknown event kind \{\}"),
            (
                '{"events": [{"kind": "node_failure", "time": 1.0, "node": true}]}',
                "event 0: invalid node_failure event .*node must be a string, got True",
            ),
            (
                '{"events": [{"kind": "node_recovery", "time": 1.0, "node": ""}]}',
                "event 0: invalid node_recovery event .*requires a non-empty node name",
            ),
            (
                '{"events": [{"kind": "tariff_change", "time": Infinity, "cost": 0.5}]}',
                "event 0: invalid tariff_change event .*time must be finite, got inf",
            ),
            (
                '{"events": [{"kind": "tariff_change", "time": "5", "cost": 0.5}]}',
                "event 0: invalid tariff_change event .*time must be a real number, got str",
            ),
            (
                '{"events": [{"kind": "tariff_change", "time": true, "cost": 0.5}]}',
                "event 0: invalid tariff_change event .*time must be a real number, got bool",
            ),
            (
                '{"events": [{"kind": "tariff_change", "time": ' + "9" * 400 + ', "cost": 0.5}]}',
                "event 0: invalid tariff_change event .*time must be finite",
            ),
            (
                '{"events": [{"kind": "tariff_change", "time": ' + "9" * 5000 + ', "cost": 0.5}]}',
                "invalid JSON: Exceeds the limit",
            ),
            (
                '{"events": [{"kind": "tariff_change", "cost": 0.5}]}',
                "event 0: invalid tariff_change event .*missing 1 required positional "
                "argument: 'time'",
            ),
            (
                '{"events": [{"kind": "tariff_change", "time": 1.0, "cost": 0.5, "rate": 2}]}',
                "event 0: invalid tariff_change event .*unexpected keyword argument 'rate'",
            ),
            (
                '{"events": [{"kind": "workload_burst", "time": 1.0, "duration": 5.0,'
                ' "factor": NaN}]}',
                "event 0: invalid workload_burst event .*factor must be finite, got nan",
            ),
            (
                '{"events": [{"kind": "thermal_excursion", "time": 1.0, "temperature": NaN}]}',
                "event 0: invalid thermal_excursion event .*temperature must be finite, got nan",
            ),
            (
                '{"events": [{"kind": "thermal_excursion", "time": 1.0,'
                ' "temperature": Infinity}]}',
                "event 0: invalid thermal_excursion event .*temperature must be finite, got inf",
            ),
            (
                '{"events": [{"kind": "thermal_excursion", "time": 1.0,'
                ' "temperature": -Infinity}]}',
                "event 0: invalid thermal_excursion event .*temperature must be finite, "
                "got -inf",
            ),
            (
                '{"events": [{"kind": "node_failure", "time": 1.0, "node": "a",'
                ' "scheduled": "no"}]}',
                "event 0: invalid node_failure event .*scheduled must be true or false, "
                "got 'no'",
            ),
            (b'\xff\xfe{"events": []}', "invalid JSON: 'utf-8' codec can't decode"),
        ],
        ids=[
            "not-a-table", "list-kind", "deep-nesting", "int-node", "nan-time",
            "top-level-array", "events-not-an-array", "missing-kind", "table-kind",
            "bool-node", "empty-node", "inf-time", "string-time", "bool-time",
            "huge-int-time", "over-long-int", "missing-time", "unknown-field",
            "nan-factor", "nan-temperature", "inf-temperature", "minus-inf-temperature",
            "string-scheduled", "not-utf8",
        ],
    )
    def test_hostile_file_fails_with_a_typed_error(
        self, tmp_path, capsys, document, message
    ):
        path = tmp_path / "hostile.json"
        if isinstance(document, bytes):
            path.write_bytes(document)
        else:
            path.write_text(document)
        with pytest.raises(TimelineError, match=f"hostile.json: {message}"):
            load_timeline(path)
        for command in ("validate", "inspect"):
            assert main(["timeline", command, str(path)]) == 2
            assert "hostile.json" in capsys.readouterr().err

    def test_an_over_long_toml_integer_fails_with_a_typed_error(self, tmp_path):
        path = tmp_path / "hostile.toml"
        path.write_text(
            '[[events]]\nkind = "tariff_change"\ntime = ' + "9" * 5000 + "\ncost = 0.5\n"
        )
        with pytest.raises(TimelineError, match="hostile.toml: invalid TOML: Exceeds the limit"):
            load_timeline(path)

    def test_timeline_errors_are_value_errors(self, tmp_path):
        # The CLI maps ValueError to exit code 2; timeline problems must
        # follow that path instead of crashing with a traceback.
        assert issubclass(TimelineError, ValueError)


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        timeline = EventTimeline([
            TariffChange(time=60.0, cost=0.8),
            NodeFailure(time=120.0, node="orion-0"),
            WorkloadBurst(time=200.0, duration=50.0, factor=2.0),
        ])
        path = tmp_path / "out.json"
        write_timeline(path, timeline, title="round trip")
        loaded = load_timeline(path)
        assert loaded == timeline
        assert loaded.content_hash() == timeline.content_hash()

    def test_round_trip_preserves_scheduled_flags(self, tmp_path):
        timeline = EventTimeline([
            NodeFailure(time=10.0, node="a", scheduled=True),  # planned maintenance
            WorkloadBurst(time=20.0, duration=5.0, factor=2.0, scheduled=False),
        ])
        path = tmp_path / "flags.json"
        write_timeline(path, timeline)
        loaded = load_timeline(path)
        assert loaded == timeline
        assert loaded.events[0].scheduled is True
        assert loaded.events[1].scheduled is False

    def test_scheduled_flag_distinguishes_hashes(self):
        planned = EventTimeline([NodeFailure(time=10.0, node="a", scheduled=True)])
        surprise = EventTimeline([NodeFailure(time=10.0, node="a")])
        assert planned.content_hash() != surprise.content_hash()


class TestBundledTimelines:
    def test_figure9_is_bundled(self):
        timeline = bundled_timeline("figure9")
        assert [event.kind for event in timeline] == [
            "tariff_change",
            "tariff_change",
            "thermal_excursion",
            "thermal_excursion",
        ]
        assert [event.time for event in timeline] == [3600.0, 6000.0, 9600.0, 14400.0]

    def test_unknown_bundled_name_lists_available(self):
        with pytest.raises(TimelineError, match="figure9"):
            bundled_timeline_path("figure99")
