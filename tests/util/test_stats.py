"""Tests for running statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.stats import RunningStats


def stats_of(values) -> RunningStats:
    stats = RunningStats()
    for value in values:
        stats.add(value)
    return stats


class TestRunningStats:
    def test_empty_stats(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_single_value(self):
        stats = stats_of([5.0])
        assert stats.count == 1
        assert stats.mean == 5.0

    def test_mean_of_known_sequence(self):
        assert stats_of([1.0, 2.0, 3.0, 4.0]).mean == pytest.approx(2.5)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_mean_matches_numpy_property(self, values):
        stats = stats_of(values)
        assert stats.count == len(values)
        assert stats.mean == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-6)

    def test_integer_and_numpy_samples_are_floats(self):
        stats = stats_of([1, np.float32(2.0), np.int64(3)])
        assert stats.mean == 2.0
        assert type(stats.mean) is float
