"""Tests for trace-driven scenarios: spec hashing, grids, executor dispatch."""

import pytest

from repro.runner.executor import execute_scenario, run_scenarios
from repro.runner.grids import trace_grid
from repro.runner.spec import ScenarioSpec, SweepSpec, trace_file_hash
from repro.runner.store import ShardedResultStore
from repro.simulation.task import Task
from repro.workload.traces import save_trace


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    tasks = [
        Task(flop=5e9, arrival_time=float(i), client=f"user{i % 2}", service="queue1")
        for i in range(6)
    ]
    save_trace(path, tasks)
    return path


class TestTraceSpec:
    def test_trace_requires_trace_workload(self, trace_file):
        with pytest.raises(ValueError, match="workload='trace'"):
            ScenarioSpec(trace=str(trace_file))  # workload defaults to "paper"
        with pytest.raises(ValueError, match="workload='trace'"):
            ScenarioSpec(workload="trace")  # trace path missing

    def test_trace_hash_without_trace_rejected(self):
        with pytest.raises(ValueError, match="meaningless"):
            ScenarioSpec(trace_hash="ab" * 32)

    def test_trace_hash_computed_from_content(self, trace_file):
        spec = ScenarioSpec(workload="trace", trace=str(trace_file))
        assert spec.trace_hash == trace_file_hash(trace_file)

    def test_missing_trace_file_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot hash trace file"):
            ScenarioSpec(workload="trace", trace=str(tmp_path / "gone.csv"))

    def test_hash_is_content_addressed_not_path_addressed(self, trace_file, tmp_path):
        copy = tmp_path / "renamed.csv"
        copy.write_bytes(trace_file.read_bytes())
        a = ScenarioSpec(workload="trace", trace=str(trace_file))
        b = ScenarioSpec(workload="trace", trace=str(copy))
        assert a.content_hash() == b.content_hash()

    def test_editing_trace_changes_hash(self, trace_file):
        before = ScenarioSpec(workload="trace", trace=str(trace_file)).content_hash()
        with open(trace_file, "a", encoding="utf-8") as handle:
            handle.write("99.0,1e8,user9,0.0,queue1\n")
        after = ScenarioSpec(workload="trace", trace=str(trace_file)).content_hash()
        assert before != after

    def test_trace_spec_differs_from_preset_spec(self, trace_file):
        trace_spec = ScenarioSpec(workload="trace", trace=str(trace_file))
        assert trace_spec.content_hash() != ScenarioSpec().content_hash()

    def test_replace_trace_rehashes_new_file(self, trace_file, tmp_path):
        other = tmp_path / "other.csv"
        save_trace(other, [Task(flop=1e9)])
        spec = ScenarioSpec(workload="trace", trace=str(trace_file))
        moved = spec.replace(trace=str(other))
        assert moved.trace_hash == trace_file_hash(other)
        assert moved.trace_hash != spec.trace_hash

    def test_replace_other_fields_keeps_trace_hash(self, trace_file):
        spec = ScenarioSpec(workload="trace", trace=str(trace_file))
        assert spec.replace(policy="RANDOM", seed=1).trace_hash == spec.trace_hash

    def test_mapping_round_trip_without_file(self, trace_file):
        spec = ScenarioSpec(workload="trace", trace=str(trace_file))
        mapping = spec.to_mapping()
        trace_file.unlink()  # store records must rebuild without the file
        rebuilt = ScenarioSpec.from_mapping(mapping)
        assert rebuilt == spec
        assert rebuilt.content_hash() == spec.content_hash()

    def test_non_trace_mapping_has_no_trace_keys(self):
        mapping = ScenarioSpec().to_mapping()
        assert "trace" not in mapping
        assert "trace_hash" not in mapping

    def test_scenario_id_names_the_trace_file(self, trace_file):
        spec = ScenarioSpec(workload="trace", trace=str(trace_file))
        assert "trace=trace.csv" in spec.scenario_id

    def test_trace_axis_sweeps_over_files(self, trace_file, tmp_path):
        other = tmp_path / "other.csv"
        save_trace(other, [Task(flop=1e9)])
        sweep = SweepSpec(
            base=ScenarioSpec(workload="trace", trace=str(trace_file)),
            axes={"trace": (str(trace_file), str(other))},
        )
        first, second = sweep.iter_expand()
        assert first.trace_hash != second.trace_hash


class TestTraceGrid:
    def test_default_grid_is_two_by_two(self, trace_file):
        grid = trace_grid(str(trace_file))
        assert len(grid) == 4
        assert {spec.platform for spec in grid} == {"quick", "half"}
        assert {spec.policy for spec in grid} == {"POWER", "PERFORMANCE"}
        assert all(spec.workload == "trace" for spec in grid)

    def test_grid_shares_one_trace_hash(self, trace_file):
        hashes = {spec.trace_hash for spec in trace_grid(str(trace_file))}
        assert hashes == {trace_file_hash(trace_file)}


class TestTraceExecution:
    def test_placement_executes_trace_scenario(self, trace_file):
        spec = ScenarioSpec(
            experiment="placement",
            platform="tiny",
            workload="trace",
            trace=str(trace_file),
        )
        result = execute_scenario(spec)
        assert result.metrics["task_count"] == 6.0
        assert result.metrics["total_energy"] > 0

    def test_heterogeneity_replays_trace(self, trace_file):
        """Since the lab refactor traces are legal on every family: the
        point study replays the stream open-loop over its servers."""
        spec = ScenarioSpec(
            experiment="heterogeneity",
            platform="types2",
            workload="trace",
            trace=str(trace_file),
        )
        result = execute_scenario(spec)
        assert result.metrics["task_count"] == 6.0
        assert result.metrics["mean_energy_per_task"] > 0

    def test_adaptive_replays_trace_through_provisioning(self, trace_file):
        """A trace under adaptive provisioning — the cross-product
        composition the pre-lab assembly paths could not express."""
        spec = ScenarioSpec(
            experiment="adaptive",
            platform="quick",
            workload="trace",
            policy="GREENPERF",
            trace=str(trace_file),
            horizon=1800.0,
        )
        result = execute_scenario(spec)
        assert result.metrics["task_count"] == 6.0
        assert result.metrics["final_candidates"] >= 1.0

    def test_sweep_caches_by_trace_content(self, trace_file, tmp_path):
        store = tmp_path / "store.jsonl"
        grid = trace_grid(str(trace_file))[:1]
        first = run_scenarios(grid, store=store)
        assert (first.executed, first.cached) == (1, 0)
        second = run_scenarios(trace_grid(str(trace_file))[:1], store=store)
        assert (second.executed, second.cached) == (0, 1)
        # editing the trace invalidates the cache entry
        with open(trace_file, "a", encoding="utf-8") as handle:
            handle.write("50.0,1e9,user0,0.0,queue1,1,\n")
        third = run_scenarios(trace_grid(str(trace_file))[:1], store=store)
        assert (third.executed, third.cached) == (1, 0)

    def test_cached_trace_result_round_trips_spec(self, trace_file, tmp_path):
        store_path = tmp_path / "store.jsonl"
        grid = trace_grid(str(trace_file))[:1]
        run_scenarios(grid, store=store_path)
        reloaded = ShardedResultStore(store_path).load()
        result = reloaded.get(grid[0].content_hash())
        assert result is not None
        assert result.spec == grid[0]
