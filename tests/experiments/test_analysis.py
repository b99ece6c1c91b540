"""Tests for the experiment analysis helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.experiments.analysis import (
    energy_delay_product,
    random_policy_spread,
    relative_change,
    summarize_runs,
)
from repro.experiments.presets import PlacementExperimentConfig
from repro.simulation.metrics import ExperimentMetrics


class TestSummarizeRuns:
    def test_single_value(self):
        stats = summarize_runs([5.0])
        assert stats.count == 1
        assert stats.mean == 5.0
        assert stats.std == 0.0
        assert stats.ci_halfwidth == 0.0
        assert stats.ci_low == stats.ci_high == 5.0

    def test_known_values(self):
        stats = summarize_runs([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.ci_low < 2.5 < stats.ci_high

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_runs([])

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_bounds_property(self, values):
        stats = summarize_runs(values)
        assert stats.minimum <= stats.mean <= stats.maximum
        assert stats.ci_low <= stats.mean <= stats.ci_high


class TestScalarHelpers:
    def test_energy_delay_product(self):
        metrics = ExperimentMetrics(
            policy="X", makespan=100.0, total_energy=500.0, task_count=10
        )
        assert energy_delay_product(metrics) == pytest.approx(50_000.0)

    def test_relative_change(self):
        assert relative_change(110.0, 100.0) == pytest.approx(0.10)
        assert relative_change(90.0, 100.0) == pytest.approx(-0.10)
        with pytest.raises(ZeroDivisionError):
            relative_change(1.0, 0.0)


class TestRandomSpread:
    CONFIG = PlacementExperimentConfig(
        nodes_per_cluster=1,
        requests_per_core=2,
        task_flop=2.0e10,
        continuous_rate=1.0,
        sample_period=5.0,
    )

    def test_spread_over_seeds(self):
        spread = random_policy_spread(self.CONFIG, seeds=(0, 1, 2))
        assert spread.makespan.count == 3
        assert spread.energy.count == 3
        assert set(spread.per_seed) == {0, 1, 2}
        # Each seed completes the same number of tasks.
        counts = {m.task_count for m in spread.per_seed.values()}
        assert len(counts) == 1
        # The spread stays bounded relative to the mean (placement noise only;
        # the tiny test workload makes it relatively larger than at full scale).
        assert spread.energy.std < 0.5 * spread.energy.mean
        assert spread.energy.minimum > 0.0

    def test_requires_at_least_one_seed(self):
        with pytest.raises(ValueError):
            random_policy_spread(self.CONFIG, seeds=())
