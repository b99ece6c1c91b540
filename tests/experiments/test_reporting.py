"""Tests for the plain-text reporting helpers."""

import pytest

from repro.experiments.adaptive import run_adaptive_experiment, AdaptiveExperimentConfig
from repro.experiments.greenperf_eval import run_heterogeneity_experiment
from repro.experiments.placement import run_policy_comparison
from repro.experiments.presets import PlacementExperimentConfig
from repro.experiments.reporting import (
    format_adaptive_series,
    format_energy_per_cluster,
    format_metric_points,
    format_table2,
    format_task_distribution,
)
from repro.scenario.events import EventTimeline, TariffChange

SMALL = PlacementExperimentConfig(
    nodes_per_cluster=1, requests_per_core=1, task_flop=2.0e10, sample_period=5.0
)


@pytest.fixture(scope="module")
def comparison():
    return run_policy_comparison(config=SMALL)


class TestPlacementReports:
    def test_table2_mentions_all_policies_and_metrics(self, comparison):
        text = format_table2(comparison)
        for policy in ("RANDOM", "POWER", "PERFORMANCE"):
            assert policy in text
        assert "Makespan (s)" in text
        assert "Energy (J)" in text

    def test_task_distribution_lists_nodes(self, comparison):
        distribution = comparison.task_distribution("POWER")
        text = format_task_distribution(distribution, title="Figure 2")
        assert "Figure 2" in text
        for node in distribution:
            assert node in text

    def test_energy_per_cluster_lists_clusters(self, comparison):
        text = format_energy_per_cluster(comparison)
        for cluster in ("orion", "taurus", "sagittaire"):
            assert cluster in text


class TestHeterogeneityReport:
    def test_metric_points_table(self):
        result = run_heterogeneity_experiment(kinds=2, tasks_per_client=5)
        text = format_metric_points(result)
        assert "2 server types" in text
        assert "GREENPERF" in text
        assert "RANDOM (area)" in text


class TestAdaptiveReport:
    def test_adaptive_series_table(self):
        config = AdaptiveExperimentConfig(
            duration=1800.0,
            task_flop=2e11,
            client_tick=300.0,
            sample_period=60.0,
            timeline=EventTimeline([TariffChange(time=600.0, cost=0.5)]),
        )
        result = run_adaptive_experiment(config)
        text = format_adaptive_series(result)
        assert "Figure 9" in text
        assert "candidates" in text
        assert "Injected events" in text
        assert "electricity cost" in text
