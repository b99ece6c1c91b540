"""Replay client: trace loading, repetition and report arithmetic."""

import pytest

from repro.serve.protocol import SubmitResponse
from repro.serve.replay import ReplayReport, load_trace_tasks

MINI_SWF = "tests/data/mini.swf"


class TestLoadTraceTasks:
    def test_loads_the_bundled_trace(self):
        tasks = load_trace_tasks(MINI_SWF)
        assert len(tasks) == 22
        arrivals = [task.arrival_time for task in tasks]
        assert arrivals == sorted(arrivals)

    def test_limit_truncates(self):
        assert len(load_trace_tasks(MINI_SWF, limit=5)) == 5
        assert load_trace_tasks(MINI_SWF, limit=0) == ()

    def test_repeat_shifts_each_cycle(self):
        once = load_trace_tasks(MINI_SWF)
        twice = load_trace_tasks(MINI_SWF, repeat=2)
        assert len(twice) == 2 * len(once)
        span = once[-1].arrival_time + 1.0
        assert twice[len(once)].arrival_time == once[0].arrival_time + span
        arrivals = [task.arrival_time for task in twice]
        assert arrivals == sorted(arrivals)

    def test_repeat_then_limit(self):
        tasks = load_trace_tasks(MINI_SWF, repeat=3, limit=50)
        assert len(tasks) == 50

    def test_zero_repeat_rejected(self):
        with pytest.raises(ValueError):
            load_trace_tasks(MINI_SWF, repeat=0)

    def test_negative_limit_rejected(self):
        # A negative slice bound would silently drop tasks from the end.
        with pytest.raises(ValueError, match="limit must be >= 0, got -1"):
            load_trace_tasks(MINI_SWF, limit=-1)


class TestReplayReport:
    def test_rate_and_dict(self):
        report = ReplayReport(
            sent=4, accepted=3, rejected=1, shed=0, unplaced=0,
            wall_seconds=2.0,
            responses=(
                SubmitResponse(status="accepted", time=0.0, node="orion-0"),
                SubmitResponse(status="accepted", time=1.0, node="taurus-0"),
                SubmitResponse(status="rejected", time=2.0),
                SubmitResponse(status="accepted", time=3.0, node="orion-0"),
            ),
        )
        assert report.requests_per_second == pytest.approx(2.0)
        assert list(report.nodes) == ["orion-0", "taurus-0", None, "orion-0"]
        as_dict = report.as_dict()
        assert as_dict["sent"] == 4
        assert as_dict["accepted"] == 3

    def test_zero_wall_time_has_zero_rate(self):
        report = ReplayReport(
            sent=0, accepted=0, rejected=0, shed=0, unplaced=0, wall_seconds=0.0
        )
        assert report.requests_per_second == 0.0
        assert report.nodes == ()
