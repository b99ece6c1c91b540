"""The queue grid through the sweep executor: determinism and caching.

The queue backend's event loop is a pure function of the spec, so a
parallel sweep must be *byte-identical* to a serial one — same metrics,
same detail payloads, same rendered summary — and a second run against
the same store must be 100 % cache hits without re-simulating anything.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.runner.executor as executor_module
from repro.runner.executor import execute_scenario, run_scenarios
from repro.runner.grids import grid, queue_grid
from repro.runner.reporting import SweepProgressPrinter, format_sweep_summary
from repro.runner.spec import ScenarioSpec
from repro.workload.ingest import load_swf_trace
from repro.workload.traces import save_trace

MINI_SWF = Path(__file__).resolve().parents[1] / "data" / "mini.swf"

#: A 2x2 slice of the queue grid — two platform scales x (baseline,
#: backfill) — small enough for unit tests, wide enough to exercise
#: both the generator-workload path and the policy dispatch.
SMALL_QUEUE_GRID = tuple(spec for spec in queue_grid() if spec.policy in ("FCFS", "EASY"))


class TestQueueGridShape:
    def test_registered_grid_covers_all_policies(self):
        scenarios = grid("queue")
        assert len(scenarios) == 8  # 2 platforms x 4 policies
        assert {spec.policy for spec in scenarios} == {
            "FCFS",
            "EASY",
            "CONSERVATIVE",
            "DRF",
        }
        assert all(spec.experiment == "queue" for spec in scenarios)

    def test_trace_grid_folds_queue_cores_override(self, tmp_path):
        trace = tmp_path / "t.swf"
        trace.write_text("1 0 0 60 4 -1 -1 4 100 -1 1 1 1 1 1 -1 -1 -1\n")
        scenarios = queue_grid(str(trace), platforms=("quick",), queue_cores=16)
        assert scenarios[0].overrides == (("queue_cores", 16),)
        assert scenarios[0].workload == "trace"

    def test_converted_trace_plans_like_the_raw_log(self, tmp_path):
        # The CSV keeps each job's width and wall limit, so the backfill
        # policies separate on it exactly as on the SWF log.
        converted = tmp_path / "mini.csv"
        save_trace(converted, load_swf_trace(MINI_SWF))

        def makespans(trace) -> list[float]:
            scenarios = queue_grid(str(trace), platforms=("tiny",), queue_cores=8)
            return [r.metrics["makespan"] for r in run_scenarios(scenarios).results]

        assert makespans(MINI_SWF) == [4140.0, 3940.0, 3935.0, 3870.0]
        assert makespans(converted) == makespans(MINI_SWF)

    def test_queue_scenario_produces_metrics(self):
        result = execute_scenario(SMALL_QUEUE_GRID[0])
        assert result.metrics["task_count"] > 0
        assert result.metrics["submitted"] == result.metrics["task_count"]
        assert result.detail["policy"] == "FCFS"
        assert result.detail["capacity"] > 0

    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec(experiment="queue", platform="tiny", workload="tiny",
                         policy="EASY", seed=1),
            ScenarioSpec(experiment="queue", platform="tiny", workload="tiny",
                         policy="EASY", preference=0.5),
        ],
    )
    def test_seed_and_preference_axes_rejected(self, spec):
        """Queue policies are deterministic: sweeping a seed or a
        preference would cache identical schedules under new labels."""
        with pytest.raises(ValueError, match="do not use"):
            execute_scenario(spec)


class TestQueueGridDeterminism:
    def test_four_workers_match_serial_run_byte_for_byte(self):
        serial = run_scenarios(SMALL_QUEUE_GRID, jobs=1)
        parallel = run_scenarios(SMALL_QUEUE_GRID, jobs=4)
        assert [r.metrics for r in serial.results] == [
            r.metrics for r in parallel.results
        ]
        assert [r.detail for r in serial.results] == [
            r.detail for r in parallel.results
        ]
        assert format_sweep_summary(serial) == format_sweep_summary(parallel)

    def test_progress_log_is_deterministic_under_parallelism(self, capsys):
        run_scenarios(SMALL_QUEUE_GRID, jobs=1, progress=SweepProgressPrinter())
        serial_log = capsys.readouterr().out
        run_scenarios(SMALL_QUEUE_GRID, jobs=4, progress=SweepProgressPrinter())
        assert capsys.readouterr().out == serial_log

    def test_second_run_is_all_cache_hits(self, tmp_path, monkeypatch):
        path = tmp_path / "queue_results.jsonl"
        first = run_scenarios(SMALL_QUEUE_GRID, jobs=4, store=path)
        assert first.executed == len(SMALL_QUEUE_GRID) and first.cached == 0

        def _boom(spec):
            raise AssertionError(f"scenario {spec.scenario_id} was re-simulated")

        monkeypatch.setattr(executor_module, "execute_scenario", _boom)
        second = run_scenarios(SMALL_QUEUE_GRID, jobs=1, store=path)
        assert second.executed == 0
        assert second.cached == len(SMALL_QUEUE_GRID)
        assert [r.metrics for r in second.results] == [
            r.metrics for r in first.results
        ]
