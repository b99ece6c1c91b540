"""Tests for the sweep executor: caching, determinism, parallel fan-out."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.runner.executor as executor_module
from repro.runner.executor import execute_scenario, run_scenarios
from repro.runner.reporting import SweepProgressPrinter, format_sweep_summary
from repro.runner.grids import grid
from repro.runner.spec import ScenarioSpec, SweepSpec, iter_grid
from repro.runner.store import ShardedResultStore

#: A grid small enough for unit tests: two placement policies + one
#: heterogeneity scenario, all on the tiny presets.
TINY_GRID = (
    SweepSpec(
        base=ScenarioSpec(experiment="placement", platform="tiny", workload="tiny"),
        axes={"policy": ("POWER", "RANDOM")},
    ),
    ScenarioSpec(
        experiment="heterogeneity", platform="types2", workload="tiny", policy="GREENPERF"
    ),
)
TINY = tuple(iter_grid(TINY_GRID))


class TestExecuteScenario:
    def test_placement_scenario_produces_metrics(self):
        result = execute_scenario(
            ScenarioSpec(experiment="placement", platform="tiny", workload="tiny")
        )
        assert result.metrics["task_count"] > 0
        assert result.metrics["total_energy"] > 0
        assert result.metrics["greenperf"] == pytest.approx(
            result.metrics["total_energy"] / result.metrics["task_count"]
        )
        # One arrival + one completion event per task, at minimum.
        assert result.metrics["events"] >= 2 * result.metrics["task_count"]
        assert result.detail["tasks_per_node"]

    def test_heterogeneity_scenario_produces_metrics(self):
        result = execute_scenario(
            ScenarioSpec(
                experiment="heterogeneity",
                platform="types2",
                workload="tiny",
                policy="GREENPERF",
            )
        )
        assert result.metrics["task_count"] == 10  # 2 clients x 5 tasks
        assert result.detail["tasks_per_type"]

    def test_heterogeneity_platform_must_name_types(self):
        with pytest.raises(ValueError, match="types2"):
            execute_scenario(
                ScenarioSpec(
                    experiment="heterogeneity", platform="quick", workload="tiny"
                )
            )

    @pytest.mark.parametrize(
        "spec",
        [
            # Fields the dispatcher would ignore must be rejected, not hashed
            # into silently-duplicate scenarios.
            ScenarioSpec(experiment="placement", policy="POWER", preference=0.5),
            ScenarioSpec(experiment="placement", policy="POWER", seed=1),
            ScenarioSpec(experiment="heterogeneity", platform="types2", preference=0.5),
            ScenarioSpec(experiment="heterogeneity", platform="types2", policy="GREENPERF", seed=1),
            ScenarioSpec(experiment="heterogeneity", platform="types2", horizon=100.0),
            ScenarioSpec(experiment="adaptive", policy="POWER"),
            ScenarioSpec(experiment="adaptive", seed=1),
        ],
    )
    def test_unused_spec_fields_rejected(self, spec):
        with pytest.raises(ValueError, match="do not use"):
            execute_scenario(spec)

    @pytest.mark.parametrize("platform", ["types 3", "types03", "typesfoo", "types"])
    def test_non_canonical_heterogeneity_platform_rejected(self, platform):
        """``types 3`` and ``types03`` used to run as ``types3`` under
        other hashes; ``typesfoo`` failed with a bare ``int()`` message."""
        spec = ScenarioSpec(experiment="heterogeneity", platform=platform, workload="tiny")
        with pytest.raises(ValueError, match=r"heterogeneity platform must be 'types<N>'"):
            execute_scenario(spec)

    @pytest.mark.parametrize(
        "spec, key",
        [
            # Integer parameters used to be truncated (1.9 ran as 1, True
            # as 1) under a new hash, or to crash deep inside the run.
            (ScenarioSpec(experiment="heterogeneity", platform="types2", workload="tiny",
                          overrides={"servers_per_type": 1.9}), "servers_per_type"),
            (ScenarioSpec(experiment="heterogeneity", platform="types2", workload="tiny",
                          overrides={"tasks_per_client": 2.7}), "tasks_per_client"),
            (ScenarioSpec(experiment="heterogeneity", platform="types2", workload="tiny",
                          overrides={"clients": True}), "clients"),
            (ScenarioSpec(experiment="heterogeneity", platform="types2", workload="tiny",
                          overrides={"clients": 2.0}), "clients"),
            (ScenarioSpec(experiment="queue", platform="tiny", workload="tiny",
                          policy="FCFS", overrides={"queue_cores": 16.5}), "queue_cores"),
            (ScenarioSpec(experiment="queue", platform="tiny", workload="tiny",
                          policy="FCFS", overrides={"queue_cores": True}), "queue_cores"),
            (ScenarioSpec(experiment="placement", platform="tiny", workload="tiny",
                          overrides={"nodes_per_cluster": 1.5}), "nodes_per_cluster"),
            (ScenarioSpec(experiment="placement", platform="tiny", workload="tiny",
                          overrides={"requests_per_core": 2.0}), "requests_per_core"),
            (ScenarioSpec(experiment="placement", platform="tiny", workload="tiny",
                          overrides={"burst_size": True}), "burst_size"),
            (ScenarioSpec(experiment="queue", platform="tiny", workload="tiny",
                          policy="FCFS", overrides={"nodes_per_cluster": 1.5}),
             "nodes_per_cluster"),
            (ScenarioSpec(experiment="adaptive", platform="tiny", workload="tiny",
                          policy="GREENPERF", overrides={"ramp_up_step": 1.5}),
             "ramp_up_step"),
        ],
    )
    def test_non_integer_counts_rejected(self, spec, key):
        with pytest.raises(ValueError, match=rf"{key} must be an integer"):
            execute_scenario(spec)

    def test_integer_counts_still_resolve(self):
        spec = ScenarioSpec(
            experiment="heterogeneity", platform="types2", workload="tiny",
            policy="GREENPERF", overrides={"tasks_per_client": 3},
        )
        assert execute_scenario(spec).metrics["task_count"] == 2 * 3

    def test_placement_horizon_caps_the_run(self):
        """Since the lab refactor a horizon is legal on every engine-driven
        family: the placement run stops observing at the cap."""
        free = execute_scenario(
            ScenarioSpec(experiment="placement", platform="tiny", workload="tiny")
        )
        capped = execute_scenario(
            ScenarioSpec(
                experiment="placement", platform="tiny", workload="tiny", horizon=10.0
            )
        )
        assert capped.metrics["task_count"] < free.metrics["task_count"]

    def test_preference_reaches_green_score_policy(self):
        energy_biased = execute_scenario(
            ScenarioSpec(
                experiment="placement",
                platform="tiny",
                workload="tiny",
                policy="GREEN_SCORE",
                preference=-1.0,
            )
        )
        performance_biased = execute_scenario(
            ScenarioSpec(
                experiment="placement",
                platform="tiny",
                workload="tiny",
                policy="GREEN_SCORE",
                preference=1.0,
            )
        )
        assert energy_biased.metrics != performance_biased.metrics


class TestRunGrid:
    def test_results_in_grid_order(self):
        outcome = run_scenarios(TINY)
        assert outcome.executed == 3
        assert outcome.cached == 0
        assert [r.spec.policy for r in outcome.results] == [
            "POWER",
            "RANDOM",
            "GREENPERF",
        ]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_scenarios(TINY, jobs=0)

    def test_two_workers_match_serial_run_byte_for_byte(self):
        serial = run_scenarios(TINY, jobs=1)
        parallel = run_scenarios(TINY, jobs=2)
        assert [r.metrics for r in serial.results] == [r.metrics for r in parallel.results]
        assert [r.detail for r in serial.results] == [r.detail for r in parallel.results]
        assert format_sweep_summary(serial) == format_sweep_summary(parallel)

    def test_progress_printer_is_deterministic_under_parallelism(self, capsys):
        run_scenarios(TINY, jobs=1, progress=SweepProgressPrinter())
        serial_log = capsys.readouterr().out
        run_scenarios(TINY, jobs=2, progress=SweepProgressPrinter())
        assert capsys.readouterr().out == serial_log
        assert "[  1/3] run" in serial_log


class TestStreamingExecution:
    """Generator scenario streams: same results, bounded in-flight window."""

    def test_generator_input_matches_tuple_input(self):
        eager = run_scenarios(tuple(iter_grid(TINY_GRID)))
        streamed = run_scenarios(iter_grid(TINY_GRID), jobs=2)
        assert [r.metrics for r in eager.results] == [
            r.metrics for r in streamed.results
        ]
        assert [r.spec for r in eager.results] == [r.spec for r in streamed.results]

    def test_two_jobs_match_serial(self):
        serial = run_scenarios(tuple(TINY_GRID[0].iter_expand()), jobs=1)
        parallel = run_scenarios(tuple(TINY_GRID[0].iter_expand()), jobs=2)
        assert [r.metrics for r in serial.results] == [
            r.metrics for r in parallel.results
        ]

    def test_progress_total_is_none_for_generators(self):
        totals = []
        run_scenarios(
            iter_grid(TINY_GRID),
            progress=lambda i, r, total: totals.append(total),
        )
        assert totals == [None, None, None]

    def test_progress_total_is_known_for_sequences(self):
        totals = []
        run_scenarios(
            tuple(TINY_GRID[0].iter_expand()),
            progress=lambda i, r, total: totals.append(total),
        )
        assert totals == [2, 2]

    def test_progress_printer_renders_unknown_total(self, capsys):
        run_scenarios(iter_grid(TINY_GRID), progress=SweepProgressPrinter())
        assert "[  1/?] run" in capsys.readouterr().out

    def test_streamed_store_caching(self, tmp_path):
        store_dir = tmp_path / "store"
        first = run_scenarios(iter_grid(TINY_GRID), store=store_dir, jobs=2)
        second = run_scenarios(iter_grid(TINY_GRID), store=store_dir, jobs=2)
        assert first.executed == 3
        assert second.cached == 3
        assert [r.metrics for r in first.results] == [
            r.metrics for r in second.results
        ]


class TestStoreIntegration:
    def test_second_run_is_all_cache_hits(self, tmp_path, monkeypatch):
        path = tmp_path / "results.jsonl"
        first = run_scenarios(TINY, store=path)
        assert first.executed == 3 and first.cached == 0

        # A cache-served sweep must not execute a single simulation.
        def _boom(spec):
            raise AssertionError(f"scenario {spec.scenario_id} was re-simulated")

        monkeypatch.setattr(executor_module, "execute_scenario", _boom)
        second = run_scenarios(TINY, store=path)
        assert second.executed == 0 and second.cached == 3
        assert all(r.cached for r in second.results)
        assert [r.metrics for r in second.results] == [r.metrics for r in first.results]

    def test_force_bypasses_cache(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_scenarios(TINY, store=path)
        forced = run_scenarios(TINY, store=path, force=True)
        assert forced.executed == 3 and forced.cached == 0

    def test_partial_store_runs_only_misses(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_scenarios(tuple(s for s in TINY if "placement" in s.scenario_id), store=path)
        full = run_scenarios(TINY, store=path)
        assert full.cached == 2 and full.executed == 1

    def test_store_accepts_instance(self, tmp_path):
        store = ShardedResultStore(tmp_path / "results")
        outcome = run_scenarios(
            (ScenarioSpec(experiment="placement", platform="tiny", workload="tiny"),),
            store=store,
        )
        assert outcome.executed == 1
        assert len(store) == 1

    def test_one_digest_per_scenario_cold_and_warm(self, tmp_path, spec_digests):
        """A sweep hashes each scenario once: the grid dedupe, the store
        lookup and the store write share the spec's memoized digest."""
        sweep = SweepSpec(
            ScenarioSpec(experiment="placement", platform="tiny", workload="tiny",
                         policy="RANDOM"),
            {"seed": range(4)},
        )
        cold = run_scenarios(iter_grid(sweep), store=tmp_path / "store")
        assert cold.executed == 4
        assert len(spec_digests) == 4
        spec_digests.clear()
        warm = run_scenarios(iter_grid(sweep), store=ShardedResultStore(tmp_path / "store"))
        assert warm.cached == 4
        assert len(spec_digests) == 4

    def test_a_file_at_the_store_path_is_refused(self, tmp_path, monkeypatch):
        """A regular file is not a store: the sweep fails before simulating
        anything and leaves the file as it was."""
        path = tmp_path / "results.jsonl"
        path.write_bytes(b'{"hash": "0123"}\n')

        def _boom(spec):
            raise AssertionError(f"scenario {spec.scenario_id} was simulated")

        monkeypatch.setattr(executor_module, "execute_scenario", _boom)
        with pytest.raises(ValueError, match="result stores are directories"):
            run_scenarios(grid("smoke"), store=path)
        assert path.read_bytes() == b'{"hash": "0123"}\n'
        assert sorted(tmp_path.iterdir()) == [path]


#: The fault-injection timeline fixture: tariff drop, node crash with a
#: workload burst across the outage, delayed repair, thermal excursion.
FAULTY_TIMELINE = str(Path(__file__).parent.parent / "data" / "failures.toml")


def faulty_grid():
    """A 2×2 adaptive grid (platforms × horizons) driven by FAULTY_TIMELINE."""
    from repro.runner.grids import timeline_grid

    return timeline_grid(FAULTY_TIMELINE)


class TestFaultySweepDeterminism:
    """A sweep whose scenarios crash and repair nodes mid-run must stay
    exactly as deterministic and cache-stable as a fault-free one."""

    def test_grid_is_2x2(self):
        scenarios = faulty_grid()
        assert len(scenarios) == 4
        assert all(s.experiment == "adaptive" for s in scenarios)
        assert all(s.timeline == FAULTY_TIMELINE for s in scenarios)
        hashes = {s.content_hash() for s in scenarios}
        assert len(hashes) == 4

    def test_four_workers_match_serial_byte_for_byte(self):
        serial = run_scenarios(faulty_grid(), jobs=1)
        parallel = run_scenarios(faulty_grid(), jobs=4)
        assert [r.metrics for r in serial.results] == [
            r.metrics for r in parallel.results
        ]
        assert [r.detail for r in serial.results] == [
            r.detail for r in parallel.results
        ]
        assert format_sweep_summary(serial) == format_sweep_summary(parallel)

    def test_rerun_is_all_cache_hits(self, tmp_path, monkeypatch):
        path = tmp_path / "results.jsonl"
        first = run_scenarios(faulty_grid(), jobs=4, store=path)
        assert first.executed == 4 and first.cached == 0

        def _boom(spec):
            raise AssertionError(f"scenario {spec.scenario_id} was re-simulated")

        monkeypatch.setattr(executor_module, "execute_scenario", _boom)
        second = run_scenarios(faulty_grid(), store=path)
        assert second.executed == 0 and second.cached == 4
        assert [r.metrics for r in second.results] == [
            r.metrics for r in first.results
        ]

    def test_moving_the_timeline_file_keeps_cache_hits(self, tmp_path):
        store = tmp_path / "results.jsonl"
        run_scenarios(faulty_grid(), store=store)
        copied = tmp_path / "renamed.toml"
        copied.write_text(Path(FAULTY_TIMELINE).read_text())
        from repro.runner.grids import timeline_grid

        moved = run_scenarios(timeline_grid(str(copied)), store=store)
        assert moved.cached == 4 and moved.executed == 0

    def test_editing_the_timeline_invalidates_the_cache(self, tmp_path):
        store = tmp_path / "results.jsonl"
        run_scenarios(faulty_grid(), store=store)
        edited = tmp_path / "edited.toml"
        edited.write_text(
            Path(FAULTY_TIMELINE).read_text().replace("time = 600.0", "time = 700.0")
        )
        from repro.runner.grids import timeline_grid

        changed = run_scenarios(timeline_grid(str(edited)), store=store)
        assert changed.executed == 4 and changed.cached == 0

    def test_crashes_actually_happen_in_the_sweep(self):
        outcome = run_scenarios(faulty_grid()[:1])
        metrics = outcome.results[0].metrics
        # The scenario completes work despite the crash, and the failure
        # counters exist (requeue semantics: nothing is lost for good).
        assert metrics["task_count"] > 0
        assert metrics["failed_tasks"] == 0.0

    def test_timeline_composes_with_every_family(self):
        """Since the lab refactor a timeline is legal on every family: the
        placement run sees the crash (fault injection), the heterogeneity
        study sees it as a server-unavailability window."""
        placement = execute_scenario(
            ScenarioSpec(
                experiment="placement",
                platform="tiny",
                workload="tiny",
                timeline=FAULTY_TIMELINE,
            )
        )
        assert placement.metrics["task_count"] > 0
        assert "failed_tasks" in placement.metrics
        heterogeneity = execute_scenario(
            ScenarioSpec(
                experiment="heterogeneity",
                platform="types2",
                workload="tiny",
                policy="GREENPERF",
                timeline=FAULTY_TIMELINE,
            )
        )
        assert heterogeneity.metrics["task_count"] == 10


class TestProfiledRuns:
    def test_profile_records_wall_times(self):
        outcome = run_scenarios(
            (ScenarioSpec(experiment="placement", platform="tiny", workload="tiny"),),
            profile=True,
        )
        assert len(outcome.wall_times) == 1
        assert outcome.wall_times[0] > 0.0

    def test_unprofiled_runs_carry_no_timings(self):
        outcome = run_scenarios(
            (ScenarioSpec(experiment="placement", platform="tiny", workload="tiny"),),
        )
        assert outcome.wall_times == ()

    def test_cache_hits_report_zero_wall_time(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_scenarios(TINY, store=path)
        outcome = run_scenarios(TINY, store=path, profile=True)
        assert outcome.cached == 3
        assert outcome.wall_times == (0.0, 0.0, 0.0)

    def test_profile_format_lists_every_scenario(self):
        from repro.runner.reporting import format_sweep_profile

        outcome = run_scenarios(TINY, profile=True)
        report = format_sweep_profile(outcome)
        for result in outcome.results:
            assert result.spec.scenario_id in report
        assert "events/s" in report

    def test_profile_format_reports_whole_sweep_throughput(self):
        import re

        from repro.runner.reporting import format_sweep_profile

        outcome = run_scenarios(TINY, profile=True)
        report = format_sweep_profile(outcome)
        match = re.search(
            r"whole sweep: ([\d,]+) events in ([\d.]+) s wall = ([\d,]+) events/s",
            report,
        )
        assert match is not None
        events = float(match.group(1).replace(",", ""))
        wall = float(match.group(2))
        rate = float(match.group(3).replace(",", ""))
        expected_events = sum(r.metrics.get("events", 0.0) for r in outcome.results)
        assert events == round(expected_events)
        assert wall == round(sum(outcome.wall_times), 3)
        assert rate == round(events / sum(outcome.wall_times))

    def test_profile_format_requires_profiled_outcome(self):
        from repro.runner.reporting import format_sweep_profile

        outcome = run_scenarios(TINY)
        with pytest.raises(ValueError, match="profile"):
            format_sweep_profile(outcome)

    def test_parallel_profile_matches_serial_results(self):
        serial = run_scenarios(TINY, profile=True)
        parallel = run_scenarios(TINY, jobs=2, profile=True)
        assert [r.metrics for r in serial.results] == [
            r.metrics for r in parallel.results
        ]
        assert all(t > 0.0 for t in parallel.wall_times)

    def test_profile_records_phase_times(self):
        outcome = run_scenarios(
            (ScenarioSpec(experiment="placement", platform="tiny", workload="tiny"),),
            profile=True,
        )
        assert len(outcome.phase_times) == 1
        totals = outcome.phase_times[0]
        # A middleware-backed scenario exercises all four cost centres.
        for phase in ("estimation", "scoring", "dispatch", "energy"):
            assert totals.get(phase, 0.0) >= 0.0
        assert totals["dispatch"] > 0.0

    def test_unprofiled_runs_carry_no_phase_times(self):
        outcome = run_scenarios(
            (ScenarioSpec(experiment="placement", platform="tiny", workload="tiny"),),
        )
        assert outcome.phase_times == ()

    def test_profile_format_includes_phase_columns(self):
        from repro.runner.reporting import format_sweep_profile

        outcome = run_scenarios(TINY, profile=True)
        report = format_sweep_profile(outcome)
        assert "dispatch s" in report
        assert "phase breakdown:" in report

    def test_phase_times_stay_out_of_scenario_metrics(self):
        """Profiling is a side-channel: metrics must stay byte-identical."""
        profiled = run_scenarios(
            (ScenarioSpec(experiment="placement", platform="tiny", workload="tiny"),),
            profile=True,
        )
        plain = run_scenarios(
            (ScenarioSpec(experiment="placement", platform="tiny", workload="tiny"),),
        )
        assert profiled.results[0].metrics == plain.results[0].metrics
        assert "estimation" not in profiled.results[0].metrics
