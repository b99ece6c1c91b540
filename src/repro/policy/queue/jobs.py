"""The queue-family job record and its converters.

A :class:`QueueJob` is the minimal view of a batch job that backfill and
fair-share scheduling need: arrival, width (cores), actual runtime, the
user's *requested* runtime (the wall limit backfill plans against) and
the owning user (fair share).

:func:`jobs_from_tasks` produces them from middleware
:class:`~repro.simulation.task.Task` objects by inverting the flop model
(``runtime = flop / (cores × flops_per_core)``), so SWF traces (whose
tasks carry their original runtime, width and wall limit) and generator
workloads from :mod:`repro.lab` both compose with queue policies.

Job ids are **positional indices**, never the global ``Task.task_id``
counter — that counter is per-process, and positional ids are what keep
``repro sweep --jobs N`` byte-identical to serial.

>>> job = QueueJob(job_id=0, arrival=0.0, cores=2, runtime=100.0,
...                requested_runtime=120.0, user="u1")
>>> job.estimate      # planning upper bound: the wall limit
120.0
>>> job.effective_runtime   # what actually executes
100.0
>>> QueueJob(job_id=1, arrival=5.0, cores=1, runtime=60.0,
...          requested_runtime=30.0, user="u1").effective_runtime
30.0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.simulation.task import Task


@dataclass(frozen=True, slots=True)
class QueueJob:
    """One batch job as seen by the queue-family policies.

    ``requested_runtime`` is the user-declared wall limit.  Planning
    always uses :attr:`estimate` (the limit when known, else the true
    runtime), and execution uses :attr:`effective_runtime` — a job that
    underestimates its runtime is killed at the wall limit, exactly as a
    production batch system would do.  Because ``effective_runtime <=
    estimate`` by construction, estimates are honest upper bounds and
    the EASY reservation guarantee holds.
    """

    job_id: int
    arrival: float
    cores: int
    runtime: float
    requested_runtime: float | None = None
    user: str = "u0"

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"job {self.job_id}: cores must be positive")
        if self.runtime < 0:
            raise ValueError(f"job {self.job_id}: runtime must be >= 0")
        if self.requested_runtime is not None and self.requested_runtime < 0:
            raise ValueError(f"job {self.job_id}: requested_runtime must be >= 0")

    @property
    def estimate(self) -> float:
        """Planning duration: the wall limit when known, else the runtime."""
        if self.requested_runtime is None:
            return self.runtime
        return self.requested_runtime

    @property
    def effective_runtime(self) -> float:
        """Executed duration: the runtime, clipped by the wall limit."""
        if self.requested_runtime is None:
            return self.runtime
        return min(self.runtime, self.requested_runtime)


def jobs_from_tasks(
    tasks: Sequence["Task"],
    *,
    flops_per_core: float,
) -> list[QueueJob]:
    """Convert middleware tasks into :class:`QueueJob` records.

    The runtime inverts the flop model: a task of ``flop`` work on
    ``cores`` cores at ``flops_per_core`` flop/s runs for
    ``flop / (cores * flops_per_core)`` seconds.  SWF-derived tasks
    (see :meth:`repro.workload.ingest.mapping.SWFTraceMap.task_for`)
    therefore recover their original ``run_time`` exactly; generator
    tasks are single-core with exact estimates.

    >>> from repro.simulation.task import Task
    >>> task = Task(flop=2.0e9, arrival_time=3.0, client="alice",
    ...             cores=2, requested_runtime=5.0)
    >>> [job] = jobs_from_tasks([task], flops_per_core=1.0e9)
    >>> (job.arrival, job.cores, job.runtime, job.requested_runtime, job.user)
    (3.0, 2, 1.0, 5.0, 'alice')
    """
    if flops_per_core <= 0:
        raise ValueError("flops_per_core must be positive")
    jobs: list[QueueJob] = []
    for task in tasks:
        cores = max(1, int(getattr(task, "cores", 1)))
        runtime = float(task.flop) / (cores * flops_per_core)
        requested = getattr(task, "requested_runtime", None)
        jobs.append(
            QueueJob(
                job_id=len(jobs),
                arrival=float(task.arrival_time),
                cores=cores,
                runtime=runtime,
                requested_runtime=None if requested is None else float(requested),
                user=str(task.client),
            )
        )
    return jobs
