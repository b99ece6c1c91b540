"""Tests for workload trace persistence."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.simulation.task import Task
from repro.workload.generator import BurstThenContinuousWorkload
from repro.workload.traces import TraceWorkload, load_trace, save_trace


class TestTraceRoundTrip:
    def test_save_and_load_preserves_fields(self, tmp_path):
        path = tmp_path / "trace.csv"
        tasks = [
            Task(flop=1e8, arrival_time=0.0, client="c-0", user_preference=0.5),
            Task(flop=2e8, arrival_time=1.5, client="c-1", service="other"),
        ]
        save_trace(path, tasks)
        loaded = load_trace(path)
        assert len(loaded) == 2
        assert loaded[0].flop == 1e8
        assert loaded[0].user_preference == 0.5
        assert loaded[1].client == "c-1"
        assert loaded[1].service == "other"
        assert loaded[1].arrival_time == 1.5

    def test_cores_and_requested_runtime_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        tasks = [
            Task(flop=1e8, arrival_time=0.0, cores=8, requested_runtime=900.0),
            Task(flop=2e8, arrival_time=1.0),
        ]
        save_trace(path, tasks)
        loaded = load_trace(path)
        assert [(t.cores, t.requested_runtime) for t in loaded] == [(8, 900.0), (1, None)]

    def test_five_column_file_loads_with_default_sizes(self, tmp_path):
        path = tmp_path / "five.csv"
        path.write_text(
            "arrival_time,flop,client,user_preference,service\n"
            "0.0,1e8,c-0,0.0,cpu-burn\n",
            encoding="utf-8",
        )
        (task,) = load_trace(path)
        assert (task.cores, task.requested_runtime) == (1, None)

    @pytest.mark.parametrize(
        "cells, message",
        [("2.5,", r"sizes\.csv:2.*'cores'.*'2\.5'"), ("4,soon", r"sizes\.csv:2.*'soon'")],
    )
    def test_malformed_size_cells_rejected_with_line(self, tmp_path, cells, message):
        path = tmp_path / "sizes.csv"
        path.write_text(
            "arrival_time,flop,client,user_preference,service,cores,requested_runtime\n"
            f"0.0,1e8,c-0,0.0,cpu-burn,{cells}\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=message):
            load_trace(path)

    def test_load_sorts_by_arrival(self, tmp_path):
        path = tmp_path / "trace.csv"
        tasks = [Task(arrival_time=5.0), Task(arrival_time=1.0)]
        save_trace(path, tasks)
        loaded = load_trace(path)
        assert [task.arrival_time for task in loaded] == [1.0, 5.0]

    def test_generator_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        original = BurstThenContinuousWorkload(total_tasks=12, burst_size=4).generate()
        save_trace(path, original)
        workload = TraceWorkload.from_file(path)
        replayed = workload.generate()
        assert [t.arrival_time for t in replayed] == [t.arrival_time for t in original]
        assert [t.flop for t in replayed] == [t.flop for t in original]

    def test_load_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arrival_time,flop\n0.0,1e8\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing columns"):
            load_trace(path)

    def test_trace_workload_sorts_tasks(self):
        tasks = [Task(arrival_time=3.0), Task(arrival_time=1.0)]
        workload = TraceWorkload(tasks=tasks)
        assert [t.arrival_time for t in workload.generate()] == [1.0, 3.0]


class TestTraceEdgeCases:
    def test_empty_trace_round_trips(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_trace(path, [])
        assert load_trace(path) == ()

    def test_file_without_header_rejected(self, tmp_path):
        path = tmp_path / "headerless.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty file"):
            load_trace(path)

    def test_duplicate_header_columns_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "arrival_time,flop,client,user_preference,service,flop\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="duplicate header columns.*flop"):
            load_trace(path)

    def test_row_wider_than_header_rejected_with_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(
            "arrival_time,flop,client,user_preference,service\n"
            "0.0,1e8,c-0,0.0,cpu-burn,EXTRA\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"wide\.csv:2.*6 cells"):
            load_trace(path)

    def test_row_narrower_than_header_rejected_with_line(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text(
            "arrival_time,flop,client,user_preference,service\n"
            "0.0,1e8,c-0,0.0,cpu-burn\n"
            "1.0,1e8\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"narrow\.csv:3.*2 cells"):
            load_trace(path)

    def test_malformed_float_wrapped_with_context(self, tmp_path):
        path = tmp_path / "badfloat.csv"
        path.write_text(
            "arrival_time,flop,client,user_preference,service\n"
            "zero,1e8,c-0,0.0,cpu-burn\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"badfloat\.csv:2.*arrival_time.*'zero'"):
            load_trace(path)

    def test_invalid_task_values_wrapped_with_context(self, tmp_path):
        path = tmp_path / "badtask.csv"
        path.write_text(
            "arrival_time,flop,client,user_preference,service\n"
            "0.0,-5.0,c-0,0.0,cpu-burn\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"badtask\.csv:2"):
            load_trace(path)

    def test_extra_named_columns_tolerated(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(
            "arrival_time,flop,client,user_preference,service,note\n"
            "0.5,1e8,c-0,0.25,cpu-burn,ignored\n",
            encoding="utf-8",
        )
        (task,) = load_trace(path)
        assert task.arrival_time == 0.5
        assert task.user_preference == 0.25

    def test_non_monotone_rows_sorted_on_load(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        tasks = [Task(arrival_time=t) for t in (9.0, 1.0, 5.0, 1.0)]
        save_trace(path, tasks)
        loaded = load_trace(path)
        arrivals = [task.arrival_time for task in loaded]
        assert arrivals == sorted(arrivals) == [1.0, 1.0, 5.0, 9.0]
        # equal arrivals keep file (task_id) order
        assert loaded[0].task_id < loaded[1].task_id


class TestTraceWorkloadConstruction:
    def test_a_task_iterator_is_consumed_once(self):
        workload = TraceWorkload(tasks=(Task(arrival_time=float(i)) for i in (2, 0, 1)))
        first = workload.generate()
        second = workload.generate()
        assert first is second
        assert [task.arrival_time for task in first] == [0.0, 1.0, 2.0]

    def test_eager_from_file_reads_immediately(self, tmp_path):
        with pytest.raises(OSError):
            TraceWorkload.from_file(tmp_path / "missing.csv")


SIZED_HEADER = "arrival_time,flop,client,user_preference,service,cores,requested_runtime"
PLAIN_HEADER = "arrival_time,flop,client,user_preference,service"

#: ``(header, rows, line, message)``: every hostile row is refused with
#: ``trace file <path>:<line>: <message>``, word for word.
HOSTILE_ROWS = {
    "row too wide": (
        PLAIN_HEADER, ["0.0,1e8,c-0,0.0,cpu-burn,EXTRA"], 2, "row has 6 cells, header has 5",
    ),
    "row too narrow": (
        SIZED_HEADER, ["0.0,1e8,c-0,0.0,cpu-burn,1"], 2, "row has 6 cells, header has 7",
    ),
    "non-numeric arrival_time": (
        SIZED_HEADER, ["soon,1e8,c-0,0.0,cpu-burn,1,"], 2,
        "column 'arrival_time' is not a number (got 'soon')",
    ),
    "non-numeric flop": (
        SIZED_HEADER, ["0.0,lots,c-0,0.0,cpu-burn,1,"], 2,
        "column 'flop' is not a number (got 'lots')",
    ),
    "empty user_preference": (
        SIZED_HEADER, ["0.0,1e8,c-0,,cpu-burn,1,"], 2,
        "column 'user_preference' is not a number (got '')",
    ),
    "non-integer cores": (
        SIZED_HEADER, ["0.0,1e8,c-0,0.0,cpu-burn,2.5,"], 2,
        "columns 'cores' and 'requested_runtime' need an integer and a number or "
        "nothing (got '2.5', '')",
    ),
    "non-numeric requested_runtime": (
        SIZED_HEADER, ["0.0,1e8,c-0,0.0,cpu-burn,1,later"], 2,
        "columns 'cores' and 'requested_runtime' need an integer and a number or "
        "nothing (got '1', 'later')",
    ),
    "negative flop": (
        SIZED_HEADER, ["0.0,-5.0,c-0,0.0,cpu-burn,1,"], 2, "flop must be > 0, got -5.0",
    ),
    "NaN arrival_time": (
        SIZED_HEADER, ["nan,1e8,c-0,0.0,cpu-burn,1,"], 2, "arrival_time must be finite, got nan",
    ),
    "NaN flop": (
        SIZED_HEADER, ["0.0,NaN,c-0,0.0,cpu-burn,1,"], 2, "flop must be finite, got nan",
    ),
    "user_preference out of range": (
        SIZED_HEADER, ["0.0,1e8,c-0,1.5,cpu-burn,1,"], 2,
        "user_preference must be in [-1.0, 1.0], got 1.5",
    ),
    "empty service": (
        SIZED_HEADER, ["0.0,1e8,c-0,0.0,,1,"], 2, "service must be a non-empty string",
    ),
    "zero cores": (
        SIZED_HEADER, ["0.0,1e8,c-0,0.0,cpu-burn,0,"], 2, "cores must be >= 1",
    ),
    "negative requested_runtime": (
        SIZED_HEADER, ["0.0,1e8,c-0,0.0,cpu-burn,1,-1.0"], 2,
        "requested_runtime must be >= 0, got -1.0",
    ),
    "a float column is reported before the sizes": (
        SIZED_HEADER, ["0.0,lots,c-0,0.0,cpu-burn,x,"], 2,
        "column 'flop' is not a number (got 'lots')",
    ),
    "the line counts blank lines": (
        SIZED_HEADER,
        ["0.0,1e8,c-0,0.0,cpu-burn,1,", "", "1.0,1e8,c-1,0.0,cpu-burn,1,",
         "2.0,-1,c-2,0.0,cpu-burn,1,"],
        5, "flop must be > 0, got -1.0",
    ),
}


class TestHostileRows:
    @pytest.mark.parametrize("case", sorted(HOSTILE_ROWS))
    def test_refused_with_the_exact_message_and_line(self, tmp_path, case):
        header, rows, line, message = HOSTILE_ROWS[case]
        path = tmp_path / "hostile.csv"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            load_trace(path)
        assert str(caught.value) == f"trace file {path}:{line}: {message}"


tasks_strategy = st.lists(
    st.builds(
        Task,
        flop=st.floats(min_value=1e-3, max_value=1e15),
        arrival_time=st.one_of(
            st.sampled_from([0.0, 1.0, 2.5]), st.floats(min_value=0.0, max_value=1e6)
        ),
        client=st.text(alphabet="ab ,\"'-_0", max_size=6),
        user_preference=st.floats(min_value=-1.0, max_value=1.0),
        service=st.text(alphabet="xy ,\"", min_size=1, max_size=4),
        cores=st.integers(min_value=1, max_value=4096),
        requested_runtime=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e7)),
    ),
    max_size=12,
)


class TestRoundTripProperty:
    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(tasks=tasks_strategy)
    def test_save_then_load_keeps_every_field(self, tmp_path, tasks):
        path = tmp_path / "round.csv"
        save_trace(path, tasks)
        loaded = load_trace(path)
        workload = TraceWorkload.from_file(path)

        def fields(task):
            return (
                task.flop, task.arrival_time, task.client, task.user_preference,
                task.service, task.cores, task.requested_runtime,
            )

        # Loading sorts by arrival; equal arrivals keep file order.
        expected = sorted(tasks, key=lambda task: task.arrival_time)
        assert [fields(task) for task in loaded] == [fields(task) for task in expected]
        assert [fields(task) for task in workload.generate()] == [
            fields(task) for task in expected
        ]
        assert workload.generate() is workload.tasks
