"""Tests for the seeded timeline generators."""

import pytest

from repro.scenario.generators import exponential_failures, periodic_tariffs


class TestExponentialFailures:
    def test_same_seed_same_timeline(self):
        kwargs = dict(mtbf=1000.0, mttr=200.0, horizon=50_000.0, seed=7)
        a = exponential_failures(["x", "y"], **kwargs)
        b = exponential_failures(["x", "y"], **kwargs)
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_different_seeds_differ(self):
        a = exponential_failures(["x"], mtbf=1000.0, mttr=200.0, horizon=50_000.0, seed=0)
        b = exponential_failures(["x"], mtbf=1000.0, mttr=200.0, horizon=50_000.0, seed=1)
        assert a != b

    def test_adding_a_node_keeps_other_streams(self):
        # "b" sorts after "a": adding "a" shifts b's position in the node
        # list, which must not shift its stream (streams are seeded by
        # node *name*, not list index).
        kwargs = dict(mtbf=1000.0, mttr=200.0, horizon=50_000.0, seed=3)
        solo = exponential_failures(["b"], **kwargs)
        both = exponential_failures(["a", "b"], **kwargs)
        b_events_solo = [e for e in solo if e.node == "b"]
        b_events_both = [e for e in both if e.node == "b"]
        assert b_events_solo == b_events_both

    def test_failures_and_recoveries_alternate_per_node(self):
        timeline = exponential_failures(
            ["x", "y"], mtbf=500.0, mttr=100.0, horizon=50_000.0, seed=1
        )
        for node in ("x", "y"):
            kinds = [e.kind for e in timeline if e.node == node]
            assert kinds, "expected at least one failure within 100 MTBFs"
            assert kinds[::2] == ["node_failure"] * len(kinds[::2])
            assert kinds[1::2] == ["node_recovery"] * len(kinds[1::2])
            assert len(kinds) % 2 == 0  # every failure is repaired

    def test_all_events_inside_horizon(self):
        horizon = 10_000.0
        timeline = exponential_failures(
            ["x"], mtbf=500.0, mttr=2000.0, horizon=horizon, seed=2
        )
        assert all(0.0 <= event.time < horizon for event in timeline)

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_failures(["x"], mtbf=0.0, mttr=1.0, horizon=10.0)
        with pytest.raises(ValueError):
            exponential_failures(["x"], mtbf=1.0, mttr=-1.0, horizon=10.0)
        with pytest.raises(ValueError):
            exponential_failures(["x"], mtbf=1.0, mttr=1.0, horizon=0.0)


class TestPeriodicTariffs:
    def test_cycle_layout(self):
        timeline = periodic_tariffs(period=100.0, costs=(1.0, 0.5), horizon=250.0)
        assert [(e.time, e.cost) for e in timeline.tariff_changes] == [
            (0.0, 1.0), (50.0, 0.5), (100.0, 1.0), (150.0, 0.5), (200.0, 1.0),
        ]

    def test_single_cost_holds(self):
        timeline = periodic_tariffs(period=60.0, costs=(0.8,), horizon=150.0)
        assert [e.cost for e in timeline.tariff_changes] == [0.8, 0.8, 0.8]

    def test_empty_costs_rejected(self):
        with pytest.raises(ValueError, match="cost"):
            periodic_tariffs(period=60.0, costs=(), horizon=100.0)
