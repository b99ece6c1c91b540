"""Tests for the plain-text reporting helpers."""

import pytest

from repro.experiments.greenperf_eval import HeterogeneityResult
from repro.experiments.reporting import (
    energy_saving,
    format_adaptive_series,
    format_energy_per_cluster,
    format_metric_points,
    format_table2,
    format_task_distribution,
)
from repro.lab.compat import session_for_spec
from repro.runner.executor import run_scenarios
from repro.runner.grids import heterogeneity_grid, table2_grid
from repro.runner.spec import ScenarioSpec
from repro.runner.store import ScenarioResult
from repro.scenario.events import EventTimeline, TariffChange
from tests.conftest import write_timeline


@pytest.fixture(scope="module")
def results():
    # One request per core at 2 req/s: the quick platform, a shorter stream.
    grid = (
        spec.replace(overrides={"requests_per_core": 1, "continuous_rate": 2.0})
        for spec in table2_grid("quick")
    )
    return run_scenarios(grid).by_policy()


class TestPlacementReports:
    def test_table2_mentions_all_policies_and_metrics(self, results):
        text = format_table2(results)
        for policy in ("RANDOM", "POWER", "PERFORMANCE"):
            assert policy in text
        assert "Makespan (s)" in text
        assert "Energy (J)" in text

    def test_task_distribution_lists_nodes(self, results):
        distribution = results["POWER"].detail["tasks_per_node"]
        text = format_task_distribution(distribution, title="Figure 2")
        assert "Figure 2" in text
        for node in distribution:
            assert node in text

    def test_energy_per_cluster_lists_clusters(self, results):
        text = format_energy_per_cluster(results)
        for cluster in ("orion", "taurus", "sagittaire"):
            assert cluster in text

    def test_energy_saving_is_one_minus_the_energy_ratio(self):
        def result(policy, energy):
            return ScenarioResult(
                spec=ScenarioSpec(policy=policy), metrics={"total_energy": energy}
            )

        results = {"POWER": result("POWER", 75.0), "RANDOM": result("RANDOM", 100.0)}
        assert energy_saving(results, "POWER", "RANDOM") == 0.25
        results["RANDOM"] = result("RANDOM", 0.0)
        with pytest.raises(ZeroDivisionError, match="RANDOM"):
            energy_saving(results, "POWER", "RANDOM")


class TestHeterogeneityReport:
    def test_metric_points_table(self):
        grid = heterogeneity_grid((2,), overrides={"tasks_per_client": 5})
        result = HeterogeneityResult.from_results(run_scenarios(grid).results, 2)
        text = format_metric_points(result)
        assert "2 server types" in text
        assert "GREENPERF" in text
        assert "RANDOM (area)" in text


class TestAdaptiveReport:
    def test_adaptive_series_table(self, tmp_path):
        timeline = tmp_path / "tariff.json"
        write_timeline(timeline, EventTimeline([TariffChange(time=600.0, cost=0.5)]))
        spec = ScenarioSpec(
            experiment="adaptive",
            policy="GREENPERF",
            horizon=1800.0,
            timeline=str(timeline),
            overrides={"task_flop": 2e11, "client_tick": 300.0, "sample_period": 60.0},
        )
        text = format_adaptive_series(session_for_spec(spec).run())
        assert "Figure 9" in text
        assert "candidates" in text
        assert "Injected events" in text
        assert "electricity cost" in text

    @pytest.mark.parametrize(
        ("horizon", "listed"),
        [(1200.0, ["0.50 at t=600s", "0.80 at t=1200s"]), (900.0, ["0.50 at t=600s"])],
    )
    def test_only_events_the_run_reached_are_listed(self, tmp_path, horizon, listed):
        """An event at exactly the horizon fires (and is listed); later ones do not."""
        timeline = tmp_path / "tariff.json"
        events = [
            TariffChange(time=600.0, cost=0.5),
            TariffChange(time=1200.0, cost=0.8),
            TariffChange(time=5000.0, cost=0.2),
        ]
        write_timeline(timeline, EventTimeline(events))
        spec = ScenarioSpec(
            experiment="adaptive",
            policy="GREENPERF",
            horizon=horizon,
            timeline=str(timeline),
            overrides={"task_flop": 2e11, "client_tick": 300.0, "sample_period": 60.0},
        )
        result = session_for_spec(spec).run()
        text = format_adaptive_series(result)
        listed_lines = text.split("Injected events:\n")[1].splitlines()
        assert [line.split("-> ")[1] for line in listed_lines] == listed
        assert len(result.timeline.events) == 3
