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
