"""Tests for workload trace persistence."""

import pytest

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
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            TraceWorkload()
        with pytest.raises(ValueError, match="exactly one"):
            TraceWorkload(tasks=[], loader=lambda: [])

    def test_a_task_iterator_is_consumed_once(self):
        workload = TraceWorkload(tasks=(Task(arrival_time=float(i)) for i in (2, 0, 1)))
        first = workload.generate()
        second = workload.generate()
        assert first is second
        assert [task.arrival_time for task in first] == [0.0, 1.0, 2.0]

    def test_lazy_from_file_defers_read(self, tmp_path):
        path = tmp_path / "late.csv"
        workload = TraceWorkload.from_file(path, lazy=True)  # file absent: fine
        save_trace(path, [Task(arrival_time=4.0)])
        assert [task.arrival_time for task in workload.generate()] == [4.0]

    def test_lazy_from_file_surfaces_errors_on_generate(self, tmp_path):
        workload = TraceWorkload.from_file(tmp_path / "missing.csv", lazy=True)
        with pytest.raises(OSError):
            workload.generate()

    def test_eager_from_file_reads_immediately(self, tmp_path):
        with pytest.raises(OSError):
            TraceWorkload.from_file(tmp_path / "missing.csv")
