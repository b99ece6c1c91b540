"""Workload generators.

All generators produce :class:`~repro.simulation.task.Task` objects with
monotonically non-decreasing arrival times, suitable for feeding either a
client in the middleware model or the simulation engine directly.

The paper's placement experiment (Section IV-A) uses:

* one task = 1e8 successive additions, one core per task;
* a total of 10 client requests per available core;
* a *burst* phase with ``r`` simultaneous requests, then a *continuous*
  phase at two requests per second.

:class:`BurstThenContinuousWorkload` encodes exactly that (a one-task
burst makes it a constant-rate stream); :class:`PoissonWorkload` covers
open arrivals with random gaps.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.simulation.task import DEFAULT_TASK_FLOP, Task
from repro.util.validation import ensure_positive


class WorkloadGenerator(ABC):
    """Produces a finite, time-ordered sequence of tasks.

    Subclasses implement :meth:`generate`; iteration delegates to it, so
    any generator can be fed directly to a simulation driver:

    >>> workload = BurstThenContinuousWorkload(
    ...     total_tasks=3, burst_size=1, continuous_rate=1.0)
    >>> [task.arrival_time for task in workload]
    [0.0, 1.0, 2.0]
    """

    @abstractmethod
    def generate(self) -> Sequence[Task]:
        """Materialise the workload as a tuple of tasks sorted by arrival time."""

    def __iter__(self) -> Iterator[Task]:
        return iter(self.generate())


def _sorted_by_arrival(tasks: list[Task]) -> tuple[Task, ...]:
    return tuple(sorted(tasks, key=lambda task: (task.arrival_time, task.task_id)))


@dataclass
class BurstThenContinuousWorkload(WorkloadGenerator):
    """The paper's burst + continuous submission pattern.

    Parameters
    ----------
    total_tasks:
        Total number of requests (the paper uses 10 × available cores).
    burst_size:
        Number of simultaneous requests in the initial burst (``r``).
    continuous_rate:
        Requests per second during the continuous phase (paper: 2.0).
    flop_per_task:
        Cost of each task (paper: 1e8).

    The burst arrives at time 0.

    >>> workload = BurstThenContinuousWorkload(
    ...     total_tasks=4, burst_size=2, continuous_rate=2.0)
    >>> [task.arrival_time for task in workload.generate()]
    [0.0, 0.0, 0.5, 1.0]
    """

    total_tasks: int
    burst_size: int
    continuous_rate: float = 2.0
    flop_per_task: float = DEFAULT_TASK_FLOP

    def __post_init__(self) -> None:
        if self.total_tasks < 1:
            raise ValueError(f"total_tasks must be >= 1, got {self.total_tasks}")
        if self.burst_size < 0:
            raise ValueError(f"burst_size must be >= 0, got {self.burst_size}")
        if self.burst_size > self.total_tasks:
            raise ValueError(
                f"burst_size ({self.burst_size}) cannot exceed total_tasks "
                f"({self.total_tasks})"
            )
        ensure_positive(self.continuous_rate, "continuous_rate")
        ensure_positive(self.flop_per_task, "flop_per_task")

    def generate(self) -> Sequence[Task]:
        tasks = [Task(flop=self.flop_per_task) for _ in range(self.burst_size)]
        interval = 1.0 / self.continuous_rate
        remaining = self.total_tasks - self.burst_size
        for index in range(remaining):
            tasks.append(Task(flop=self.flop_per_task, arrival_time=(index + 1) * interval))
        return _sorted_by_arrival(tasks)


@dataclass
class PoissonWorkload(WorkloadGenerator):
    """Poisson arrivals with exponential inter-arrival times, from time 0.

    Every task costs ``flop_per_task``.  Arrivals are seeded, so equal
    specs replay identical streams:

    >>> a = PoissonWorkload(total_tasks=5, rate=1.0, seed=42).generate()
    >>> b = PoissonWorkload(total_tasks=5, rate=1.0, seed=42).generate()
    >>> [x.arrival_time for x in a] == [y.arrival_time for y in b]
    True
    """

    total_tasks: int
    rate: float
    flop_per_task: float = DEFAULT_TASK_FLOP
    seed: int = 0
    user_preference: float = 0.0

    def __post_init__(self) -> None:
        if self.total_tasks < 1:
            raise ValueError(f"total_tasks must be >= 1, got {self.total_tasks}")
        ensure_positive(self.rate, "rate")
        ensure_positive(self.flop_per_task, "flop_per_task")

    def generate(self) -> Sequence[Task]:
        import numpy as np

        rng = np.random.default_rng(self.seed)
        gaps = rng.exponential(scale=1.0 / self.rate, size=self.total_tasks)
        tasks = [
            Task(
                flop=float(self.flop_per_task),
                arrival_time=arrival,
                user_preference=self.user_preference,
            )
            for arrival in np.cumsum(gaps).tolist()
        ]
        return _sorted_by_arrival(tasks)
