"""Self-tests of the benchmark harness (``python -m pytest bench/tests -q``)."""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
import time

import pytest

from procs import ROOT
from run import WORKLOAD_NAMES
from tracer import SPANS, Tracer, layer_sum_error, per_layer_metrics

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_follows_the_schema():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["bench"]
    assert all(not part.startswith("/") and ".." not in part for part in BENCHMARK["command"])
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    workloads = BENCHMARK["workloads"]
    assert [w["name"] for w in workloads] == list(WORKLOAD_NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in workloads)
    end_to_end, per_layer = BENCHMARK["end_to_end"], BENCHMARK["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    names = [row["name"] for row in workloads + end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for row in end_to_end:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert UNIT.match(row["unit"]) and row["better"] in ("higher", "lower")
        assert 0 < row["bound"] <= 0.25
    for row in per_layer:
        assert set(row) == {"name", "unit", "better"}
        assert UNIT.match(row["unit"]) and row["better"] in ("higher", "lower")
    setup = next(row for row in end_to_end if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(row["bound"] for row in end_to_end)


def test_every_per_layer_metric_names_an_end_to_end_metric_and_a_workload():
    rows = per_layer_metrics()
    assert [(m.name, m.unit, m.better) for m in rows] == [
        (row["name"], row["unit"], row["better"]) for row in BENCHMARK["per_layer"]
    ]
    end_to_end = {row["name"] for row in BENCHMARK["end_to_end"]}
    for metric in rows:
        assert metric.moves in end_to_end, metric
        assert metric.on in WORKLOAD_NAMES or metric.on == "all", metric


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_child_spans_on_a_synthetic_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(4.0)

    def middle():
        clock.advance(0.5)
        traced_leaf()
        clock.advance(0.25)

    def outer():
        clock.advance(1.0)
        traced_middle()
        clock.advance(2.0)
        traced_middle()
        clock.advance(3.0)

    traced_leaf = tracer.wrap("sed.estimate", leaf)
    traced_middle = tracer.wrap("election", middle)
    traced_outer = tracer.wrap("driver.run", outer)
    tracer.active = True
    clock.advance(1.5)  # outside every span: unattributed
    traced_outer()
    clock.advance(3.0)
    report = tracer.report(wall=clock.now)

    assert report["driver.run.calls"] == 1 and report["driver.run.self_s"] == 6.0
    assert report["election.calls"] == 2 and report["election.self_s"] == 1.5
    assert report["sed.estimate.calls"] == 2 and report["sed.estimate.self_s"] == 8.0
    assert report["unattributed_s"] == 4.5
    assert report["trace.wall_s"] == 20.0
    assert layer_sum_error(report) == 0.0


def test_inactive_tracer_records_nothing():
    tracer = Tracer()
    traced = tracer.wrap("engine.step", lambda: 7)
    assert traced() == 7
    assert tracer.spans["engine.step"] == [0, 0.0]


def test_coroutine_spans_exclude_time_spent_suspended():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    async def read(gate):
        clock.advance(1.0)
        await gate  # suspended: the other task's time is not ours
        clock.advance(2.0)
        return "request"

    traced_read = tracer.wrap("protocol.read_request", read)

    async def scenario():
        gate = asyncio.get_running_loop().create_future()
        reader = asyncio.ensure_future(traced_read(gate))
        await asyncio.sleep(0)
        clock.advance(10.0)
        gate.set_result(None)
        return await reader

    tracer.active = True
    assert asyncio.run(scenario()) == "request"
    calls, self_s = tracer.spans["protocol.read_request"]
    assert (calls, self_s) == (1, 3.0)
    assert tracer.root_s == 3.0


def test_span_targets_resolve_to_public_callables():
    from tracer import _resolve

    for span in SPANS:
        for target in span.targets:
            _module, owner, attribute = _resolve(target)
            assert not attribute.startswith("_"), target
            assert callable(getattr(owner, attribute)), target


def run_bench(*args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


def test_smoke_scale_of_every_workload_passes_its_checks_quickly(tmp_path):
    started = time.perf_counter()
    done = run_bench("--smoke", "--repeat", "1", "--seconds", "0.5",
                     "--out", str(tmp_path / "smoke.json"), timeout=60)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads((tmp_path / "smoke.json").read_text())
    assert set(report["workloads"]) == set(WORKLOAD_NAMES)
    for summary in report["workloads"].values():
        assert all(summary["checks"].values()), summary["checks"]
        assert summary["failed"] == 0
    assert elapsed < 30.0


@pytest.mark.parametrize("workload", ["fleet-steady", "serve-http"])
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    done = run_bench("--workload", workload, "--smoke", "--seconds", "0.3", "--trace", "1",
                     timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [row["name"] for row in BENCHMARK["per_layer"]]


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", "out"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fleet-steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
