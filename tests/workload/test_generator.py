"""Tests for the workload generators."""

import pytest
from hypothesis import given, strategies as st

from repro.workload.generator import (
    BurstThenContinuousWorkload,
    PoissonWorkload,
)


def arrivals(tasks):
    return [task.arrival_time for task in tasks]


class TestBurstThenContinuous:
    def test_total_count(self):
        workload = BurstThenContinuousWorkload(total_tasks=10, burst_size=4)
        assert len(workload.generate()) == 10

    def test_burst_tasks_arrive_simultaneously(self):
        workload = BurstThenContinuousWorkload(total_tasks=10, burst_size=4)
        tasks = workload.generate()
        assert arrivals(tasks)[:4] == [0.0] * 4

    def test_continuous_phase_respects_rate(self):
        workload = BurstThenContinuousWorkload(
            total_tasks=6, burst_size=2, continuous_rate=2.0
        )
        tasks = workload.generate()
        continuous = arrivals(tasks)[2:]
        assert continuous == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_paper_default_rate_is_two_per_second(self):
        workload = BurstThenContinuousWorkload(total_tasks=4, burst_size=0)
        gaps = [
            b - a
            for a, b in zip(arrivals(workload.generate()), arrivals(workload.generate())[1:])
        ]
        assert all(gap == pytest.approx(0.5) for gap in gaps)

    def test_arrivals_are_sorted(self):
        workload = BurstThenContinuousWorkload(total_tasks=20, burst_size=7)
        times = arrivals(workload.generate())
        assert times == sorted(times)

    def test_task_attributes_propagate(self):
        workload = BurstThenContinuousWorkload(total_tasks=3, burst_size=1, flop_per_task=5e9)
        for task in workload.generate():
            assert task.flop == 5e9

    def test_burst_larger_than_total_rejected(self):
        with pytest.raises(ValueError):
            BurstThenContinuousWorkload(total_tasks=3, burst_size=4)

    def test_non_positive_rate_rejected(self):
        with pytest.raises(ValueError):
            BurstThenContinuousWorkload(total_tasks=3, burst_size=0, continuous_rate=0.0)

    @given(
        total=st.integers(min_value=1, max_value=200),
        burst=st.integers(min_value=0, max_value=200),
        rate=st.floats(min_value=0.1, max_value=10),
    )
    def test_count_and_order_property(self, total, burst, rate):
        if burst > total:
            burst = total
        workload = BurstThenContinuousWorkload(
            total_tasks=total, burst_size=burst, continuous_rate=rate
        )
        tasks = workload.generate()
        assert len(tasks) == total
        times = arrivals(tasks)
        assert times == sorted(times)
        assert all(t >= 0 for t in times)


class TestPoisson:
    def test_reproducible_with_seed(self):
        first = PoissonWorkload(total_tasks=20, rate=1.0, seed=42).generate()
        second = PoissonWorkload(total_tasks=20, rate=1.0, seed=42).generate()
        assert arrivals(first) == arrivals(second)

    def test_different_seeds_differ(self):
        first = PoissonWorkload(total_tasks=20, rate=1.0, seed=1).generate()
        second = PoissonWorkload(total_tasks=20, rate=1.0, seed=2).generate()
        assert arrivals(first) != arrivals(second)

    def test_mean_rate_roughly_matches(self):
        workload = PoissonWorkload(total_tasks=2000, rate=2.0, seed=0)
        tasks = workload.generate()
        span = tasks[-1].arrival_time - tasks[0].arrival_time
        observed_rate = (len(tasks) - 1) / span
        assert observed_rate == pytest.approx(2.0, rel=0.15)

    def test_every_task_costs_the_same(self):
        tasks = PoissonWorkload(total_tasks=10, rate=1.0, seed=0, flop_per_task=3e9).generate()
        assert {task.flop for task in tasks} == {3e9}

    def test_arrivals_sorted(self):
        tasks = PoissonWorkload(total_tasks=50, rate=5.0, seed=3).generate()
        times = arrivals(tasks)
        assert times == sorted(times)
