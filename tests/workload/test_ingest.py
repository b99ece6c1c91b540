"""Tests for the SWF ingest pipeline: parser, field mapping, transforms."""

import math
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation.task import Task
from repro.workload.ingest import (
    SampleUsers,
    ScaleArrivals,
    ScaleLoad,
    SWFJob,
    SWFParseError,
    SWFTraceMap,
    TimeWindow,
    Truncate,
    apply_transforms,
    load_swf_trace,
    parse_swf,
    read_swf_header,
    tasks_from_swf,
)

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "mini.swf"

FULL_RECORD = "1 0 5 120 4 118.0 2048 4 300 -1 1 1 1 3 1 1 2 10"


class TestSWFParser:
    def test_parses_all_18_fields(self):
        job = next(parse_swf([FULL_RECORD]))
        assert job.job_id == 1
        assert job.submit_time == 0.0
        assert job.wait_time == 5.0
        assert job.run_time == 120.0
        assert job.allocated_processors == 4
        assert job.average_cpu_time == 118.0
        assert job.used_memory == 2048.0
        assert job.requested_processors == 4
        assert job.requested_time == 300.0
        assert job.requested_memory is None  # -1
        assert job.status == 1
        assert job.user_id == 1
        assert job.group_id == 1
        assert job.executable == 3
        assert job.queue == 1
        assert job.partition == 1
        assert job.preceding_job == 2
        assert job.think_time == 10.0

    def test_minus_one_means_unknown(self):
        job = next(parse_swf(["7 3 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1"]))
        assert job.job_id == 7
        assert job.submit_time == 3.0
        assert job.run_time is None
        assert job.user_id is None

    def test_missing_trailing_fields_treated_as_unknown(self):
        job = next(parse_swf(["1 0 5 120 4"]))
        assert job.allocated_processors == 4
        assert job.user_id is None
        assert job.think_time is None

    def test_skips_comments_and_blank_lines(self):
        jobs = list(parse_swf(["; comment", "", "  ", "1 0 0 10 1"]))
        assert [job.job_id for job in jobs] == [1]

    def test_truncated_record_raises_with_line_context(self):
        with pytest.raises(SWFParseError, match=r"<swf>:2.*truncated"):
            list(parse_swf(["1 0 0 10 1", "2 5 0"]))

    def test_oversized_record_rejected(self):
        with pytest.raises(SWFParseError, match="exceed"):
            list(parse_swf([FULL_RECORD + " 99"]))

    def test_non_numeric_token_raises_with_field_name(self):
        with pytest.raises(SWFParseError, match="run_time"):
            list(parse_swf(["1 0 0 ten 1"]))

    @pytest.mark.parametrize("token", ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400"])
    def test_non_finite_token_raises_with_line_context(self, token):
        with pytest.raises(SWFParseError, match=r"<swf>:2: field 'run_time' is not finite"):
            list(parse_swf(["1 0 0 10 1", f"2 5 0 {token} 1"]))

    def test_nan_submit_time_does_not_collapse_arrivals(self, tmp_path):
        # A nan origin used to map every later arrival to 0.0 silently.
        path = tmp_path / "nan.swf"
        path.write_text("1 nan -1 5 1\n2 10 -1 5 1\n3 20 -1 5 1\n", encoding="utf-8")
        with pytest.raises(SWFParseError, match=r"nan\.swf:1: field 'submit_time'"):
            load_swf_trace(path)

    def test_inf_run_time_is_a_parse_error_not_a_task_error(self, tmp_path):
        path = tmp_path / "inf.swf"
        path.write_text("1 0 -1 5 1\n2 10 -1 inf 1\n", encoding="utf-8")
        with pytest.raises(SWFParseError, match=r"inf\.swf:2: field 'run_time'"):
            load_swf_trace(path)

    def test_all_minus_one_job_rejected(self):
        record = " ".join(["-1"] * 18)
        with pytest.raises(SWFParseError, match="job_id and submit_time"):
            list(parse_swf([record]))

    def test_header_only_file_yields_no_jobs(self, tmp_path):
        path = tmp_path / "empty.swf"
        path.write_text("; MaxJobs: 0\n; Version: 2.2\n", encoding="utf-8")
        assert list(parse_swf(path)) == []
        assert read_swf_header(path) == {"MaxJobs": "0", "Version": "2.2"}

    def test_parse_error_carries_file_path(self, tmp_path):
        path = tmp_path / "bad.swf"
        path.write_text("1 0\n", encoding="utf-8")
        with pytest.raises(SWFParseError, match="bad.swf:1"):
            list(parse_swf(path))

    def test_streaming_is_lazy(self):
        def lines():
            yield "1 0 0 10 1"
            raise AssertionError("second line should not be pulled")

        iterator = parse_swf(lines())
        assert next(iterator).job_id == 1

    def test_header_stops_at_first_record(self):
        header = read_swf_header(["; A: 1", "1 0 0 10 1", "; B: 2"])
        assert header == {"A": "1"}


#: Tokens a hostile or corrupt SWF line may carry, beside arbitrary text.
_SWF_TOKENS = st.one_of(
    st.sampled_from(["-1", "0", "1", "nan", "inf", "-inf", "1e400", "1_0", "0x1", "1.5", "-0.0"]),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(min_size=1, max_size=6).filter(lambda text: not text.isspace()),
)


@st.composite
def _swf_lines(draw):
    """A plausible record with a few tokens corrupted, or arbitrary text."""
    if draw(st.booleans()):
        return draw(st.text(max_size=40))
    tokens = draw(st.lists(st.sampled_from(["1", "0", "-1", "7", "2.5"]), min_size=1, max_size=19))
    for position, token in draw(st.lists(st.tuples(st.integers(0, 18), _SWF_TOKENS), max_size=3)):
        tokens[position % len(tokens)] = token
    return " ".join(tokens)


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_swf_lines(), max_size=4))
    def test_lines_give_finite_jobs_or_a_parse_error(self, lines):
        """Arbitrary lines yield finite records or raise SWFParseError, nothing else."""
        try:
            jobs = list(parse_swf(lines))
        except SWFParseError as error:
            assert str(error).startswith("<swf>:")
            return
        for job in jobs:
            for field in fields(SWFJob):
                value = getattr(job, field.name)
                assert value is None or math.isfinite(value), (field.name, value)


class TestFixture:
    def test_fixture_has_at_least_20_jobs(self):
        jobs = list(parse_swf(FIXTURE))
        assert len(jobs) >= 20

    def test_fixture_header_directives(self):
        header = read_swf_header(FIXTURE)
        assert header["MaxJobs"] == "24"
        assert header["SWFversion"] == "2.2"

    def test_fixture_maps_to_tasks(self):
        skipped: list = []
        tasks = list(tasks_from_swf(parse_swf(FIXTURE), skipped=skipped))
        assert len(tasks) == 22  # two jobs lack runtime/processors
        assert len(skipped) == 2
        assert all(task.flop > 0 for task in tasks)
        assert tasks[0].arrival_time == 0.0


class TestFieldMapping:
    def job(self, **kwargs):
        defaults = dict(
            job_id=1,
            submit_time=100.0,
            run_time=60.0,
            allocated_processors=4,
            user_id=7,
            group_id=3,
            queue=2,
            partition=1,
        )
        defaults.update(kwargs)
        return SWFJob(**defaults)

    def test_flop_uses_node_speed_anchor(self):
        task = SWFTraceMap(flops_per_core=2e9).task_for(self.job(), origin=100.0)
        assert task.flop == 60.0 * 4 * 2e9

    def test_client_by_user_and_group(self):
        job = self.job()
        assert SWFTraceMap().task_for(job, origin=100.0).client == "user7"
        assert (
            SWFTraceMap(client_by="group").task_for(job, origin=100.0).client
            == "group3"
        )

    def test_service_by_queue_and_partition(self):
        job = self.job()
        assert SWFTraceMap().task_for(job, origin=100.0).service == "queue2"
        assert (
            SWFTraceMap(service_by="partition").task_for(job, origin=100.0).service
            == "partition1"
        )

    def test_unknown_identity_maps_to_question_mark(self):
        job = self.job(user_id=None, queue=None)
        task = SWFTraceMap().task_for(job, origin=100.0)
        assert task.client == "user?"
        assert task.service == "queue?"

    def test_unplayable_jobs_return_none(self):
        assert SWFTraceMap().task_for(self.job(run_time=None)) is None
        assert SWFTraceMap().task_for(self.job(allocated_processors=0)) is None

    def test_arrival_rebased_to_origin_and_clamped(self):
        mapping = SWFTraceMap()
        assert mapping.task_for(self.job(), origin=40.0).arrival_time == 60.0
        assert mapping.task_for(self.job(), origin=150.0).arrival_time == 0.0

    def test_invalid_mapping_kinds_rejected(self):
        with pytest.raises(ValueError, match="client_by"):
            SWFTraceMap(client_by="team")
        with pytest.raises(ValueError, match="service_by"):
            SWFTraceMap(service_by="shift")

    def test_load_swf_trace_sorts_and_applies_transforms(self):
        lines = [
            "1 0 0 60 2 -1 -1 -1 -1 -1 1 7 1 -1 1",
            "3 50 0 30 1 -1 -1 -1 -1 -1 1 8 1 -1 1",
            "2 20 0 30 1 -1 -1 -1 -1 -1 1 8 1 -1 1",
        ]
        tasks = load_swf_trace(lines, transforms=(ScaleLoad(2.0),))
        assert [task.arrival_time for task in tasks] == [0.0, 20.0, 50.0]
        assert tasks[0].flop == 60.0 * 2 * 1e9 * 2.0


class TestTransforms:
    def stream(self, count=10):
        return [Task(arrival_time=float(i), client=f"user{i % 4}") for i in range(count)]

    def test_time_window_rebases(self):
        kept = list(TimeWindow(3.0, 7.0).apply(self.stream()))
        assert [task.arrival_time for task in kept] == [0.0, 1.0, 2.0, 3.0]

    def test_time_window_validates_bounds(self):
        with pytest.raises(ValueError, match="greater than start"):
            TimeWindow(5.0, 5.0)

    def test_scale_arrivals(self):
        scaled = list(ScaleArrivals(0.5).apply(self.stream(4)))
        assert [task.arrival_time for task in scaled] == [0.0, 0.5, 1.0, 1.5]

    def test_scale_load(self):
        scaled = list(ScaleLoad(3.0).apply([Task(flop=1e8)]))
        assert scaled[0].flop == 3e8

    def test_scale_factors_must_be_positive(self):
        with pytest.raises(ValueError):
            ScaleArrivals(0.0)
        with pytest.raises(ValueError):
            ScaleLoad(-1.0)

    def test_sample_users_keeps_whole_clients(self):
        tasks = self.stream(40)
        kept = list(SampleUsers(0.5, seed=3).apply(tasks))
        kept_clients = {task.client for task in kept}
        for task in tasks:
            assert (task.client in kept_clients) == any(
                task.client == k.client for k in kept
            )

    def test_sample_users_is_deterministic(self):
        tasks = self.stream(40)
        first = [task.task_id for task in SampleUsers(0.5, seed=3).apply(tasks)]
        second = [task.task_id for task in SampleUsers(0.5, seed=3).apply(tasks)]
        assert first == second

    def test_sample_users_seed_changes_selection(self):
        tasks = [Task(client=f"user{i}") for i in range(64)]
        by_seed = {
            seed: {t.client for t in SampleUsers(0.5, seed=seed).apply(tasks)}
            for seed in range(4)
        }
        assert len(set(map(frozenset, by_seed.values()))) > 1

    def test_sample_users_fraction_validated(self):
        with pytest.raises(ValueError, match="fraction"):
            SampleUsers(0.0)
        with pytest.raises(ValueError, match="fraction"):
            SampleUsers(1.5)

    def test_truncate(self):
        kept = list(Truncate(3).apply(iter(self.stream())))
        assert len(kept) == 3

    def test_truncate_validates_count(self):
        with pytest.raises(ValueError, match="count"):
            Truncate(0)

    def test_apply_transforms_chains_in_order(self):
        pipeline = (TimeWindow(2.0, 8.0), Truncate(2), ScaleArrivals(10.0))
        out = list(apply_transforms(self.stream(), pipeline))
        assert [task.arrival_time for task in out] == [0.0, 10.0]

    def test_apply_transforms_empty_pipeline_is_identity(self):
        tasks = self.stream(3)
        assert list(apply_transforms(tasks, ())) == tasks


class TestUnsortedInput:
    def test_time_window_keeps_out_of_order_records(self):
        """Raw archive logs are occasionally not submit-ordered; windowing
        must still select strictly by arrival time."""
        tasks = [Task(arrival_time=t) for t in (0.0, 1000.0, 500.0)]
        kept = list(TimeWindow(0.0, 600.0).apply(tasks))
        assert [task.arrival_time for task in kept] == [0.0, 500.0]

    def test_convert_pipeline_keeps_out_of_order_swf_job(self):
        lines = [
            "1 0 0 10 1 -1 -1 -1 -1 -1 1 1 1 -1 1",
            "2 1000 0 10 1 -1 -1 -1 -1 -1 1 1 1 -1 1",
            "3 500 0 10 1 -1 -1 -1 -1 -1 1 1 1 -1 1",
        ]
        tasks = load_swf_trace(lines, transforms=(TimeWindow(0.0, 600.0),))
        assert [task.arrival_time for task in tasks] == [0.0, 500.0]

    def test_load_swf_trace_collects_skipped_jobs(self):
        lines = [
            "1 0 0 10 1 -1 -1 -1 -1 -1 1 1 1 -1 1",
            "2 5 0 -1 1 -1 -1 -1 -1 -1 0 1 1 -1 1",
        ]
        skipped: list = []
        tasks = load_swf_trace(lines, skipped=skipped)
        assert len(tasks) == 1
        assert [job.job_id for job in skipped] == [2]
