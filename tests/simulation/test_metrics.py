"""Tests for metric collection."""

import math

import pytest

from repro.simulation.metrics import MetricsCollector
from repro.simulation.task import TaskExecution
from tests.wattmeter import EnergyLog, PowerSample


def make_execution(task_id=0, node="a-0", cluster="a", submitted=0.0, started=0.0,
                   completed=10.0):
    return TaskExecution(
        task_id=task_id,
        node=node,
        cluster=cluster,
        submitted_at=submitted,
        started_at=started,
        completed_at=completed,
    )


def energy_log(joules=0.0, cluster="a"):
    """A one-second energy log holding ``joules`` for ``cluster``."""
    log = EnergyLog(sample_period=1.0)
    if joules:
        log.record(PowerSample(0.0, f"{cluster}-0", cluster, joules))
    return log


class TestMetricsCollector:
    def test_empty_collector(self):
        collector = MetricsCollector("POWER")
        metrics = collector.summarize(energy_log())
        assert metrics.policy == "POWER"
        assert metrics.task_count == 0
        assert metrics.makespan == 0.0
        assert metrics.total_energy == 0.0
        assert math.isnan(metrics.energy_per_task)

    def test_makespan_spans_first_submission_to_last_completion(self):
        collector = MetricsCollector()
        collector.record_execution(make_execution(submitted=5.0, started=6.0, completed=20.0))
        collector.record_execution(make_execution(submitted=2.0, started=3.0, completed=10.0))
        assert collector.makespan == pytest.approx(18.0)

    def test_tasks_per_node_and_cluster(self):
        collector = MetricsCollector()
        collector.record_execution(make_execution(node="a-0", cluster="a"))
        collector.record_execution(make_execution(node="a-0", cluster="a"))
        collector.record_execution(make_execution(node="b-0", cluster="b"))
        assert collector.tasks_per_node() == {"a-0": 2, "b-0": 1}
        assert collector.tasks_per_cluster() == {"a": 2, "b": 1}

    def test_summary_prefers_wattmeter_energy(self):
        collector = MetricsCollector()
        collector.record_execution(make_execution())
        metrics = collector.summarize(energy_log(300.0))
        assert metrics.total_energy == pytest.approx(300.0)
        assert metrics.energy_per_cluster == {"a": 300.0}

    def test_mean_response_and_queue_delay(self):
        collector = MetricsCollector()
        collector.record_execution(make_execution(submitted=0.0, started=2.0, completed=10.0))
        collector.record_execution(make_execution(submitted=0.0, started=4.0, completed=20.0))
        metrics = collector.summarize(energy_log())
        assert metrics.mean_queue_delay == pytest.approx(3.0)
        assert metrics.mean_response_time == pytest.approx(15.0)

    def test_derived_ratios(self):
        collector = MetricsCollector()
        collector.record_execution(make_execution(completed=10.0))
        collector.record_execution(make_execution(completed=20.0))
        metrics = collector.summarize(energy_log(100.0))
        assert metrics.energy_per_task == pytest.approx(50.0)
