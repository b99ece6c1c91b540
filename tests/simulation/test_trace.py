"""Tests for the execution trace."""

from repro.simulation.trace import ExecutionTrace


class TestExecutionTrace:
    def test_record_and_iterate(self):
        trace = ExecutionTrace()
        trace.record(1.0, ExecutionTrace.TASK_SUBMITTED, task_id=1)
        trace.record(2.0, ExecutionTrace.TASK_COMPLETED, task_id=1, node="n-0")
        assert len(trace) == 2
        assert [event.kind for event in trace] == [
            ExecutionTrace.TASK_SUBMITTED,
            ExecutionTrace.TASK_COMPLETED,
        ]

    def test_event_details_access(self):
        trace = ExecutionTrace()
        event = trace.record(1.0, "custom", foo="bar")
        assert event["foo"] == "bar"
        assert event.time == 1.0

    def test_of_kind_filters(self):
        trace = ExecutionTrace()
        trace.record(1.0, "a")
        trace.record(2.0, "b")
        trace.record(3.0, "a")
        assert len(trace.of_kind("a")) == 2
        assert len(trace.of_kind("missing")) == 0

    def test_filter_predicate(self):
        trace = ExecutionTrace()
        trace.record(1.0, "a", value=1)
        trace.record(2.0, "a", value=5)
        late = trace.filter(lambda event: event.time > 1.5)
        assert len(late) == 1 and late[0]["value"] == 5

    def test_last_of_kind(self):
        trace = ExecutionTrace()
        trace.record(1.0, "a", value=1)
        trace.record(2.0, "a", value=2)
        last = trace.last_of_kind("a")
        assert last is not None and last["value"] == 2
        assert trace.last_of_kind("missing") is None

    def test_events_property_is_chronological_copy(self):
        trace = ExecutionTrace()
        trace.record(1.0, "a")
        events = trace.events
        trace.record(2.0, "b")
        assert len(events) == 1
        assert len(trace.events) == 2
