"""Tests for running statistics helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.stats import RunningStats


class TestRunningStats:
    def test_empty_stats(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert math.isnan(stats.minimum)
        assert math.isnan(stats.maximum)

    def test_single_value(self):
        stats = RunningStats()
        stats.add(5.0)
        assert stats.count == 1
        assert stats.mean == 5.0
        assert stats.variance == 0.0
        assert stats.minimum == 5.0
        assert stats.maximum == 5.0

    def test_mean_of_known_sequence(self):
        stats = RunningStats()
        stats.extend([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.total == pytest.approx(10.0)

    def test_variance_matches_numpy(self):
        values = [3.2, 1.1, 7.8, 2.2, 9.9, 5.5]
        stats = RunningStats()
        stats.extend(values)
        assert stats.variance == pytest.approx(np.var(values))
        assert stats.std == pytest.approx(np.std(values))

    def test_min_max_tracking(self):
        stats = RunningStats()
        stats.extend([5.0, -2.0, 7.0, 0.0])
        assert stats.minimum == -2.0
        assert stats.maximum == 7.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_mean_matches_numpy_property(self, values):
        stats = RunningStats()
        stats.extend(values)
        assert stats.count == len(values)
        assert stats.mean == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-6)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=2, max_size=100))
    def test_variance_is_non_negative(self, values):
        stats = RunningStats()
        stats.extend(values)
        assert stats.variance >= -1e-9

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=50))
    def test_extend_equals_repeated_add(self, values):
        extended, added = RunningStats(), RunningStats()
        extended.extend(values)
        for value in values:
            added.add(value)
        assert (extended.count, extended.mean, extended.variance) == (
            added.count, added.mean, added.variance
        )

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=100))
    def test_std_is_square_root_of_variance(self, values):
        stats = RunningStats()
        stats.extend(values)
        assert stats.std == pytest.approx(math.sqrt(stats.variance))

    def test_integer_and_numpy_samples_are_floats(self):
        stats = RunningStats()
        stats.extend([1, np.float32(2.0), np.int64(3)])
        assert stats.mean == 2.0
        assert type(stats.minimum) is float and type(stats.maximum) is float
        assert stats.total == pytest.approx(6.0)
