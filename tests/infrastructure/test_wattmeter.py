"""Tests for the polling wattmeter and energy log the energy tests use as oracle."""

import pytest

from repro.infrastructure.node import Node
from tests.conftest import make_spec
from tests.wattmeter import EnergyLog, PowerSample, Wattmeter


def make_nodes():
    node_a = Node(make_spec(name="a-0", cluster="a", idle_power=100.0, peak_power=200.0))
    node_b = Node(make_spec(name="b-0", cluster="b", idle_power=50.0, peak_power=150.0))
    return node_a, node_b


class TestEnergyLog:
    def test_energy_is_watts_times_period(self):
        log = EnergyLog(sample_period=2.0)
        log.record(PowerSample(time=0.0, node="n", cluster="c", watts=100.0))
        assert log.total_energy == pytest.approx(200.0)
        assert log.energy_of_node("n") == pytest.approx(200.0)
        assert log.energy_of_cluster("c") == pytest.approx(200.0)

    def test_unknown_node_and_cluster_report_zero(self):
        log = EnergyLog(sample_period=1.0)
        assert log.energy_of_node("missing") == 0.0
        assert log.energy_of_cluster("missing") == 0.0

    def test_per_cluster_aggregation(self):
        log = EnergyLog(sample_period=1.0)
        log.record(PowerSample(0.0, "n1", "c1", 10.0))
        log.record(PowerSample(0.0, "n2", "c1", 20.0))
        log.record(PowerSample(0.0, "n3", "c2", 5.0))
        assert log.energy_of_cluster("c1") == pytest.approx(30.0)
        assert log.energy_of_cluster("c2") == pytest.approx(5.0)
        assert log.total_energy == pytest.approx(35.0)

    def test_power_trace_for_single_node(self):
        log = EnergyLog(sample_period=1.0)
        log.record(PowerSample(0.0, "n1", "c1", 10.0))
        log.record(PowerSample(1.0, "n1", "c1", 30.0))
        trace = log.power_trace("n1")
        assert trace.shape == (2, 2)
        assert trace[1, 1] == 30.0
        assert log.mean_power("n1") == pytest.approx(20.0)

    def test_platform_power_trace_sums_timestamps(self):
        log = EnergyLog(sample_period=1.0)
        log.record(PowerSample(0.0, "n1", "c1", 10.0))
        log.record(PowerSample(0.0, "n2", "c1", 15.0))
        log.record(PowerSample(1.0, "n1", "c1", 20.0))
        trace = log.power_trace()
        assert trace[0, 1] == pytest.approx(25.0)
        assert trace[1, 1] == pytest.approx(20.0)

    def test_mean_power_of_unknown_node_is_zero(self):
        log = EnergyLog(sample_period=1.0)
        assert log.mean_power("missing") == 0.0

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            EnergyLog(sample_period=0.0)


class TestWattmeter:
    def test_samples_once_per_period(self):
        node_a, node_b = make_nodes()
        meter = Wattmeter([node_a, node_b], sample_period=1.0)
        ticks = meter.advance_to(5.0)
        assert ticks == 6  # samples at t = 0..5 inclusive
        assert len(meter.log.samples) == 12

    def test_idle_energy_integration(self):
        node_a, node_b = make_nodes()
        meter = Wattmeter([node_a, node_b], sample_period=1.0)
        meter.advance_to(9.0)
        # 10 samples of (100 + 50) watts, 1 s each.
        assert meter.log.total_energy == pytest.approx(1500.0)

    def test_power_change_reflected_in_later_samples(self):
        node_a, _ = make_nodes()
        meter = Wattmeter([node_a], sample_period=1.0)
        meter.advance_to(4.0)
        for _ in range(node_a.spec.cores):
            node_a.acquire_core()
        meter.advance_to(9.0)
        trace = meter.log.power_trace("a-0")
        assert trace[0, 1] == pytest.approx(100.0)
        assert trace[-1, 1] == pytest.approx(200.0)

    def test_cannot_go_backwards(self):
        node_a, _ = make_nodes()
        meter = Wattmeter([node_a], sample_period=1.0)
        meter.advance_to(5.0)
        with pytest.raises(ValueError):
            meter.advance_to(4.0)

    def test_sub_period_advance_accumulates(self):
        node_a, _ = make_nodes()
        meter = Wattmeter([node_a], sample_period=1.0)
        assert meter.advance_to(0.4) == 1  # the t=0 sample
        assert meter.advance_to(0.9) == 0
        assert meter.advance_to(1.0) == 1

    def test_custom_sample_period(self):
        node_a, _ = make_nodes()
        meter = Wattmeter([node_a], sample_period=5.0)
        meter.advance_to(20.0)
        assert len(meter.log.samples) == 5
        assert meter.log.total_energy == pytest.approx(5 * 100.0 * 5.0)

    def test_monitored_nodes_exposed(self):
        node_a, node_b = make_nodes()
        meter = Wattmeter([node_a, node_b])
        assert meter.monitored_nodes == (node_a, node_b)

    def test_invalid_construction(self):
        node_a, _ = make_nodes()
        with pytest.raises(ValueError):
            Wattmeter([node_a], sample_period=0.0)
        with pytest.raises(ValueError):
            Wattmeter([node_a], start_time=-1.0)
