"""Tests for the task model."""

import pytest

from repro.simulation.task import DEFAULT_TASK_FLOP, Task, TaskExecution, TaskState


class TestTask:
    def test_defaults_match_paper_unit_task(self):
        task = Task()
        assert task.flop == DEFAULT_TASK_FLOP == 1.0e8
        assert task.state is TaskState.SUBMITTED
        assert task.user_preference == 0.0
        assert task.service == "cpu-burn"

    def test_unique_ids(self):
        first, second = Task(), Task()
        assert first.task_id != second.task_id

    def test_duration_on(self):
        task = Task(flop=1.0e9)
        assert task.duration_on(2.0e9) == pytest.approx(0.5)

    def test_duration_rejects_non_positive_rate(self):
        task = Task()
        with pytest.raises(ValueError):
            task.duration_on(0.0)

    def test_rejects_non_positive_flop(self):
        with pytest.raises(ValueError):
            Task(flop=0.0)

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            Task(arrival_time=-1.0)

    def test_rejects_out_of_range_preference(self):
        with pytest.raises(ValueError):
            Task(user_preference=1.5)

    def test_rejects_empty_service(self):
        with pytest.raises(ValueError):
            Task(service="")


class TestTaskExecution:
    def make(self, submitted=0.0, started=5.0, completed=15.0):
        return TaskExecution(
            task_id=1,
            node="n-0",
            cluster="c",
            submitted_at=submitted,
            started_at=started,
            completed_at=completed,
        )

    def test_derived_quantities(self):
        execution = self.make()
        assert execution.duration == 10.0
        assert execution.queue_delay == 5.0
        assert execution.response_time == 15.0

    def test_rejects_start_before_submission(self):
        with pytest.raises(ValueError):
            self.make(submitted=10.0, started=5.0)

    def test_rejects_completion_before_start(self):
        with pytest.raises(ValueError):
            self.make(started=5.0, completed=4.0)
