"""Golden-figure regression suite.

``tests/data/golden/*.json`` (generated by ``tools/make_goldens.py``)
pins the paper's headline numbers — Table II makespan/energy totals, the
Figure 6/7 heterogeneity points and the Figure 9 candidate/power
trajectory — to the exact bits the
reproduction computed when the fixtures were last regenerated.
``grids.json`` pins every named grid's scenario ids and content hashes,
and ``cli/*.txt`` the exact stdout of ``repro table2`` and ``fig2``–``fig9``.  Every
test here asserts *equality*, not approximation: JSON serialises doubles
through ``repr``, which round-trips, so any drift — an engine refactor
reordering events, an energy-accounting change, a preset edit — fails
loudly instead of silently shifting the reproduction away from the
paper.

The Figure 9 fixtures were generated by the pre-refactor inline-event
implementation; the current code reproduces them through the bundled
``figure9.toml`` timeline (the adaptive config's default), which is the
bit-identity proof for the timeline subsystem.  Every figure here runs
the path the CLI runs: a spec grid through the sweep runner, or one spec
through :func:`~repro.lab.compat.session_for_spec`.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.experiments.greenperf_eval import HeterogeneityResult
from repro.lab.compat import session_for_spec
from repro.runner.executor import run_scenarios
from repro.runner.grids import heterogeneity_grid, table2_grid
from repro.runner.spec import ScenarioSpec

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

#: The quick presets keep this suite fast; the paper scale locks the
#: published figures and still runs in about a second per experiment.
SCALES = ("quick", "paper")


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text("utf-8"))


class TestTable2Golden:
    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("table2.json")

    @pytest.mark.parametrize("scale", SCALES)
    def test_policy_totals_are_bit_identical(self, golden, scale):
        results = run_scenarios(table2_grid(scale)).by_policy()
        expected = golden["scales"][scale]
        assert sorted(results) == sorted(expected)
        for policy, result in results.items():
            assert result.metrics["makespan"] == expected[policy]["makespan"], policy
            assert (
                result.metrics["total_energy"] == expected[policy]["total_energy"]
            ), policy
            assert result.metrics["task_count"] == expected[policy]["task_count"], policy
            assert (
                result.detail["energy_per_cluster"]
                == expected[policy]["energy_per_cluster"]
            ), policy


@pytest.mark.parametrize("name, kinds", [("figure6.json", 2), ("figure7.json", 4)])
class TestHeterogeneityGolden:
    """Figures 6 and 7: the point backend's elections, bit for bit."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_points_and_random_area_are_bit_identical(self, name, kinds, scale):
        expected = load_golden(name)["scales"][scale]
        outcome = run_scenarios(heterogeneity_grid((kinds,), scale))
        result = HeterogeneityResult.from_results(outcome.results, kinds)
        assert {
            policy: asdict(point) for policy, point in result.points.items()
        } == expected["points"]
        assert asdict(result.random_area) == expected["random_area"]
        easy = ScenarioSpec(
            experiment="heterogeneity", platform=f"types{kinds}", workload=scale,
            policy="EASY",
        )
        assert asdict(session_for_spec(easy).run().point) == expected["easy"]

    def test_trace_replay_under_failures_is_bit_identical(self, name, kinds):
        expected = load_golden(name)["trace_replay"]
        data = Path(__file__).parent / "data"
        for policy, point in expected.items():
            spec = ScenarioSpec(
                experiment="heterogeneity",
                platform=f"types{kinds}",
                workload="trace",
                policy=policy,
                trace=str(data / "mini.swf"),
                timeline=str(data / "failures.toml"),
            )
            assert asdict(session_for_spec(spec).run().point) == point, policy


class TestFigure9Golden:
    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("figure9.json")

    @pytest.mark.parametrize("scale", SCALES)
    def test_trajectory_is_bit_identical(self, golden, scale):
        result = session_for_spec(TOOL.figure9_spec(scale)).run()
        expected = golden["scales"][scale]
        assert [
            [time, count] for time, count in result.candidate_series
        ] == expected["candidate_series"]
        assert [
            [time, power] for time, power in result.power_series
        ] == expected["power_series"]
        assert result.completed_tasks == expected["completed_tasks"]
        assert result.total_energy == expected["total_energy"]
        assert result.total_nodes == expected["total_nodes"]

    def test_faultless_timeline_reports_no_losses(self):
        result = session_for_spec(TOOL.figure9_spec("quick")).run()
        assert result.metrics["failed_tasks"] == 0
        assert result.metrics["rejected_tasks"] == 0


class TestQueueTableGolden:
    """The queue-policy comparison table (mini.swf × 4 policies, 16 cores)."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("queue_table.json")

    @pytest.fixture(scope="class")
    def results(self):
        return TOOL.queue_table_results()

    def test_queue_table_is_bit_identical(self, golden, results):
        expected = golden["policies"]
        assert sorted(results) == sorted(expected)
        for policy, result in results.items():
            assert result.metrics["makespan"] == expected[policy]["makespan"], policy
            assert (
                result.metrics["total_energy"] == expected[policy]["total_energy"]
            ), policy
            assert result.metrics["mean_wait"] == expected[policy]["mean_wait"], policy
            assert result.metrics["task_count"] == expected[policy]["completed"], policy
            assert (
                result.metrics["failed_tasks"] == expected[policy]["failed"]
            ), policy

    def test_backfill_improves_makespan_over_fcfs(self, results):
        """The reason the queue family exists: on a stream where a wide
        job head-blocks runnable small jobs, both backfill planners must
        finish strictly earlier than FCFS without losing a single job."""
        fcfs = results["FCFS"].metrics
        for policy in ("EASY", "CONSERVATIVE"):
            assert results[policy].metrics["makespan"] < fcfs["makespan"], policy
            assert (
                results[policy].metrics["task_count"] == fcfs["task_count"]
            ), policy


def _load_tool():
    import importlib.util

    tool_path = Path(__file__).parent.parent / "tools" / "make_goldens.py"
    spec = importlib.util.spec_from_file_location("make_goldens", tool_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()


class TestNamedGridGolden:
    """Named grids keep their scenarios, order and hashes, so stores built
    by ``repro sweep --grid NAME`` keep serving cache hits."""

    @pytest.mark.parametrize("name", sorted(load_golden("grids.json")))
    def test_grid_ids_and_hashes_are_unchanged(self, name):
        from repro.runner.grids import grid

        expected = load_golden("grids.json")[name]
        assert [
            [spec.scenario_id, spec.content_hash()] for spec in grid(name)
        ] == expected

    def test_every_named_grid_is_pinned(self):
        from repro.runner.grids import named_grids

        assert sorted(load_golden("grids.json")) == sorted(named_grids())


class TestCliGolden:
    """``repro table2``/``fig2``–``fig9`` print exactly the pinned text."""

    @pytest.mark.parametrize("name", sorted(TOOL.CLI_COMMANDS))
    def test_stdout_is_byte_identical(self, name):
        expected = (TOOL.CLI_GOLDEN_DIR / name).read_text("utf-8")
        assert TOOL.cli_stdout(TOOL.CLI_COMMANDS[name]) == expected


class TestGoldenToolIsInSync:
    def test_fixtures_match_the_generator(self):
        """`tools/make_goldens.py` run against HEAD must be a no-op.

        Rebuilds each JSON payload in-process (the CLI text fixtures are
        rebuilt by :class:`TestCliGolden`): if this fails, someone changed
        the numbers without regenerating (or regenerated without
        committing).
        """
        for name, build in TOOL.GOLDENS.items():
            expected = json.dumps(build(), indent=2, sort_keys=True) + "\n"
            assert (GOLDEN_DIR / name).read_text("utf-8") == expected, name
