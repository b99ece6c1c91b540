"""Golden-figure regression suite.

``tests/data/golden/*.json`` (generated by ``tools/make_goldens.py``)
pins the paper's headline numbers — Table II makespan/energy totals, the
Figure 6/7 heterogeneity points and the Figure 9 candidate/power
trajectory — to the exact bits the
reproduction computed when the fixtures were last regenerated.  Every
test here asserts *equality*, not approximation: JSON serialises doubles
through ``repr``, which round-trips, so any drift — an engine refactor
reordering events, an energy-accounting change, a preset edit — fails
loudly instead of silently shifting the reproduction away from the
paper.

The Figure 9 fixtures were generated by the pre-refactor inline-event
implementation; the current code reproduces them through the bundled
``figure9.toml`` timeline (the adaptive config's default), which is the
bit-identity proof for the timeline subsystem.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.experiments.adaptive import (
    adaptive_config_for,
    run_adaptive_experiment,
)
from repro.experiments.greenperf_eval import (
    HETEROGENEITY_WORKLOAD_PRESETS,
    heterogeneity_session,
    run_heterogeneity_experiment,
)
from repro.experiments.placement import run_policy_comparison
from repro.experiments.presets import placement_config_for

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
        comparison = run_policy_comparison(
            config=placement_config_for(scale, scale)
        )
        expected = golden["scales"][scale]
        assert sorted(comparison.policies) == sorted(expected)
        for policy in comparison.policies:
            metrics = comparison.metrics(policy)
            assert metrics.makespan == expected[policy]["makespan"], policy
            assert metrics.total_energy == expected[policy]["total_energy"], policy
            assert metrics.task_count == expected[policy]["task_count"], policy
            assert (
                dict(metrics.energy_per_cluster)
                == expected[policy]["energy_per_cluster"]
            ), policy


@pytest.mark.parametrize("name, kinds", [("figure6.json", 2), ("figure7.json", 4)])
class TestHeterogeneityGolden:
    """Figures 6 and 7: the point backend's elections, bit for bit."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_points_and_random_area_are_bit_identical(self, name, kinds, scale):
        expected = load_golden(name)["scales"][scale]
        params = HETEROGENEITY_WORKLOAD_PRESETS[scale]
        result = run_heterogeneity_experiment(kinds=kinds, **params)
        assert {
            policy: asdict(point) for policy, point in result.points.items()
        } == expected["points"]
        assert asdict(result.random_area) == expected["random_area"]
        easy = heterogeneity_session("EASY", kinds, **params).run().point
        assert asdict(easy) == expected["easy"]

    def test_trace_replay_under_failures_is_bit_identical(self, name, kinds):
        expected = load_golden(name)["trace_replay"]
        data = Path(__file__).parent / "data"
        for policy, point in expected.items():
            session = heterogeneity_session(
                policy,
                kinds,
                servers_per_type=2,
                trace=str(data / "mini.swf"),
                timeline=str(data / "failures.toml"),
            )
            assert asdict(session.run().point) == point, policy


class TestFigure9Golden:
    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("figure9.json")

    @pytest.mark.parametrize("scale", SCALES)
    def test_trajectory_is_bit_identical(self, golden, scale):
        result = run_adaptive_experiment(adaptive_config_for(workload=scale))
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
        result = run_adaptive_experiment(adaptive_config_for(workload="quick"))
        assert result.failed_tasks == 0
        assert result.rejected_tasks == 0


class TestQueueTableGolden:
    """The queue-policy comparison table (mini.swf × 4 policies, 16 cores)."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("queue_table.json")

    @pytest.fixture(scope="class")
    def comparison(self):
        from repro.experiments.queue_family import run_queue_comparison

        trace = Path(__file__).parent / "data" / "mini.swf"
        return run_queue_comparison(
            config=placement_config_for("quick", "trace", trace=str(trace)),
            queue_cores=16,
        )

    def test_queue_table_is_bit_identical(self, golden, comparison):
        expected = golden["policies"]
        assert sorted(comparison.policies) == sorted(expected)
        for policy, result in comparison.results.items():
            assert result.metrics["makespan"] == expected[policy]["makespan"], policy
            assert (
                result.metrics["total_energy"] == expected[policy]["total_energy"]
            ), policy
            assert result.metrics["mean_wait"] == expected[policy]["mean_wait"], policy
            assert result.metrics["task_count"] == expected[policy]["completed"], policy
            assert (
                result.metrics["failed_tasks"] == expected[policy]["failed"]
            ), policy

    def test_backfill_improves_makespan_over_fcfs(self, comparison):
        """The reason the queue family exists: on a stream where a wide
        job head-blocks runnable small jobs, both backfill planners must
        finish strictly earlier than FCFS without losing a single job."""
        for policy in ("EASY", "CONSERVATIVE"):
            assert comparison.makespan_improvement(policy) > 0, policy
            assert (
                comparison.metric(policy, "task_count")
                == comparison.metric("FCFS", "task_count")
            ), policy

    def test_report_formats_every_policy(self, comparison):
        report = comparison.format_report()
        for policy in comparison.policies:
            assert policy in report


class TestGoldenToolIsInSync:
    def test_fixtures_match_the_generator(self):
        """`tools/make_goldens.py` run against HEAD must be a no-op.

        Imports the tool and rebuilds each payload in-process: if this
        fails, someone changed the numbers without regenerating (or
        regenerated without committing).
        """
        import importlib.util

        tool_path = Path(__file__).parent.parent / "tools" / "make_goldens.py"
        spec = importlib.util.spec_from_file_location("make_goldens", tool_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name, build in module.GOLDENS.items():
            expected = json.dumps(build(), indent=2, sort_keys=True) + "\n"
            assert (GOLDEN_DIR / name).read_text("utf-8") == expected, name
