"""Metric collection: makespan, energy, task distribution.

Table II reports makespan (s) and energy (J) per scheduling policy;
Figures 2–4 report the number of tasks executed per node; Figure 5 the
energy per cluster.  :class:`MetricsCollector` derives all of these from
the execution records and the platform energy log — any implementation of
the :class:`~repro.infrastructure.energy.EnergyReadout` surface (the
driver's segment-based accountant log, or the polling meter's log the
tests compare it with).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.infrastructure.energy import EnergyReadout
from repro.simulation.task import TaskExecution

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ExperimentMetrics:
    """Summary of one experiment run.

    Attributes
    ----------
    policy:
        Name of the scheduling policy that produced the run.
    makespan:
        Time between the first submission and the last completion (s).
    total_energy:
        Integrated platform energy over the run (J), from the energy log.
    task_count:
        Number of completed tasks.
    tasks_per_node:
        Completed-task count per node name (Figures 2–4).
    tasks_per_cluster:
        Completed-task count per cluster name.
    energy_per_cluster:
        Integrated energy per cluster (J) (Figure 5).
    mean_response_time:
        Average submission-to-completion latency (s).
    mean_queue_delay:
        Average waiting time before execution (s).
    """

    policy: str
    makespan: float
    total_energy: float
    task_count: int
    tasks_per_node: Mapping[str, int] = field(default_factory=dict)
    tasks_per_cluster: Mapping[str, int] = field(default_factory=dict)
    energy_per_cluster: Mapping[str, float] = field(default_factory=dict)
    mean_response_time: float = 0.0
    mean_queue_delay: float = 0.0

    @property
    def energy_per_task(self) -> float:
        """Average energy per completed task (J); ``nan`` with zero tasks."""
        if self.task_count == 0:
            return float("nan")
        return self.total_energy / self.task_count


class MetricsCollector:
    """Accumulates task execution records and produces :class:`ExperimentMetrics`."""

    def __init__(self, policy: str = "unknown") -> None:
        self.policy = policy
        self._executions: list[TaskExecution] = []
        self._first_submission: float | None = None
        self._last_completion: float | None = None

    def record_execution(self, execution: TaskExecution) -> None:
        """Add one completed task execution."""
        self._executions.append(execution)
        if (
            self._first_submission is None
            or execution.submitted_at < self._first_submission
        ):
            self._first_submission = execution.submitted_at
        if self._last_completion is None or execution.completed_at > self._last_completion:
            self._last_completion = execution.completed_at

    # -- raw accessors -------------------------------------------------------------
    @property
    def task_count(self) -> int:
        """Number of recorded executions."""
        return len(self._executions)

    @property
    def makespan(self) -> float:
        """First-submission to last-completion span (s); 0.0 when empty."""
        if self._first_submission is None or self._last_completion is None:
            return 0.0
        return self._last_completion - self._first_submission

    def tasks_per_node(self) -> Mapping[str, int]:
        """Completed-task histogram keyed by node name."""
        counts: dict[str, int] = defaultdict(int)
        for execution in self._executions:
            counts[execution.node] += 1
        return dict(counts)

    def tasks_per_cluster(self) -> Mapping[str, int]:
        """Completed-task histogram keyed by cluster name."""
        counts: dict[str, int] = defaultdict(int)
        for execution in self._executions:
            counts[execution.cluster] += 1
        return dict(counts)

    def response_times(self) -> np.ndarray:
        """Array of submission-to-completion latencies (s)."""
        import numpy as np

        return np.array([e.response_time for e in self._executions], dtype=float)

    def queue_delays(self) -> np.ndarray:
        """Array of pre-execution waiting times (s)."""
        import numpy as np

        return np.array([e.queue_delay for e in self._executions], dtype=float)

    # -- summary ----------------------------------------------------------------------
    def summarize(self, energy_log: EnergyReadout) -> ExperimentMetrics:
        """Build the experiment summary, pulling energy from ``energy_log``."""
        response = self.response_times()
        delays = self.queue_delays()
        return ExperimentMetrics(
            policy=self.policy,
            makespan=self.makespan,
            total_energy=energy_log.total_energy,
            task_count=self.task_count,
            tasks_per_node=self.tasks_per_node(),
            tasks_per_cluster=self.tasks_per_cluster(),
            energy_per_cluster=dict(energy_log.energy_by_cluster()),
            mean_response_time=float(response.mean()) if response.size else 0.0,
            mean_queue_delay=float(delays.mean()) if delays.size else 0.0,
        )
