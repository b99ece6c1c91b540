"""Tests for the GreenPerf heterogeneity study (Figures 6-7)."""

import pytest

from repro.experiments.greenperf_eval import (
    DEFAULT_TASK_FLOP,
    HeterogeneityResult,
)
from repro.lab.components import server_type_specs
from repro.runner.executor import run_scenarios
from repro.runner.grids import heterogeneity_grid


def run_study(kinds, **overrides):
    """One figure of the study: its grid through the runner, then reduced."""
    outcome = run_scenarios(heterogeneity_grid((kinds,), overrides=overrides))
    return HeterogeneityResult.from_results(outcome.results, kinds)


@pytest.fixture(scope="module")
def low_heterogeneity():
    return run_study(2, tasks_per_client=30)


@pytest.fixture(scope="module")
def high_heterogeneity():
    return run_study(4, tasks_per_client=30)


class TestServerSpecs:
    def test_two_kinds_are_orion_and_taurus(self):
        specs = server_type_specs(2)
        assert [spec.cluster for spec in specs] == ["orion", "taurus"]

    def test_four_kinds_add_table3_clusters(self):
        specs = server_type_specs(4)
        assert [spec.cluster for spec in specs] == ["orion", "taurus", "sim1", "sim2"]

    def test_invalid_kinds_rejected(self):
        with pytest.raises(ValueError):
            server_type_specs(1)


class TestExperimentStructure:
    def test_points_for_three_policies(self, low_heterogeneity):
        assert set(low_heterogeneity.points) == {"POWER", "GREENPERF", "PERFORMANCE"}

    def test_all_tasks_accounted(self, low_heterogeneity):
        for point in low_heterogeneity.points.values():
            assert sum(point.tasks_per_type.values()) == 60  # 2 clients x 30 tasks

    def test_means_are_positive(self, high_heterogeneity):
        for point in high_heterogeneity.points.values():
            assert point.mean_energy_per_task > 0
            assert point.mean_completion_time > 0
            assert point.makespan > 0
            assert point.total_energy == pytest.approx(
                point.mean_energy_per_task * sum(point.tasks_per_type.values()), rel=1e-9
            )

    def test_random_area_is_well_formed(self, high_heterogeneity):
        area = high_heterogeneity.random_area
        assert area.energy_min <= area.energy_max
        assert area.time_min <= area.time_max

    def test_reducer_keeps_only_its_own_server_type_count(self):
        outcome = run_scenarios(
            heterogeneity_grid((2, 3, 4), seeds=(0,), overrides={"tasks_per_client": 5})
        )
        result = HeterogeneityResult.from_results(outcome.results, 4)
        assert result.kinds == 4
        assert set(result.points) == {"POWER", "GREENPERF", "PERFORMANCE"}
        # Only the four-type platform has the Table III clusters to elect.
        assert result.point("POWER").tasks_per_type == {"sim2": 10}

    def test_reducer_needs_random_results_for_the_area(self):
        outcome = run_scenarios(
            heterogeneity_grid((2, 3, 4), seeds=(0,), overrides={"tasks_per_client": 5})
        )
        # RANDOM runs at the two ends of the kinds range only.
        with pytest.raises(ValueError, match="RANDOM"):
            HeterogeneityResult.from_results(outcome.results, 3)


class TestPaperShape:
    def test_low_heterogeneity_greenperf_equals_power(self, low_heterogeneity):
        """Figure 6: with two similar server types GreenPerf adds nothing."""
        g = low_heterogeneity.point("POWER")
        gp = low_heterogeneity.point("GREENPERF")
        assert gp.mean_energy_per_task == pytest.approx(g.mean_energy_per_task, rel=0.05)
        assert gp.mean_completion_time == pytest.approx(g.mean_completion_time, rel=0.05)

    def test_performance_is_fastest_but_hungriest(self, low_heterogeneity):
        p = low_heterogeneity.point("PERFORMANCE")
        g = low_heterogeneity.point("POWER")
        assert p.mean_completion_time <= g.mean_completion_time
        assert p.mean_energy_per_task >= g.mean_energy_per_task

    def test_high_heterogeneity_greenperf_has_best_tradeoff(self, high_heterogeneity):
        """Figure 7: GreenPerf achieves the best energy x time trade-off."""
        assert high_heterogeneity.greenperf_improves_tradeoff()

    def test_greenperf_beats_power_on_time_under_heterogeneity(self, high_heterogeneity):
        gp = high_heterogeneity.point("GREENPERF")
        g = high_heterogeneity.point("POWER")
        assert gp.mean_completion_time < g.mean_completion_time

    def test_greenperf_beats_performance_on_energy(self, high_heterogeneity):
        gp = high_heterogeneity.point("GREENPERF")
        p = high_heterogeneity.point("PERFORMANCE")
        assert gp.mean_energy_per_task < p.mean_energy_per_task

    def test_tradeoff_score_of_best_policy_is_one_or_more(self, high_heterogeneity):
        for name in high_heterogeneity.points:
            assert high_heterogeneity.tradeoff_score(name) >= 1.0 - 1e-9


class TestDeterminism:
    def test_repeated_runs_identical(self):
        first = run_study(4, tasks_per_client=10)
        second = run_study(4, tasks_per_client=10)
        for name in first.points:
            assert first.points[name] == second.points[name]

    def test_task_flop_scales_times(self):
        small = run_study(2, tasks_per_client=10, task_flop=DEFAULT_TASK_FLOP)
        large = run_study(2, tasks_per_client=10, task_flop=2 * DEFAULT_TASK_FLOP)
        assert large.point("POWER").mean_completion_time == pytest.approx(
            2 * small.point("POWER").mean_completion_time
        )
