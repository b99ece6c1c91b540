"""Field mapping: SWF job records → simulation :class:`Task` streams.

SWF describes jobs by wall-clock runtime and processor count; the
simulator describes work in FLOP.  The bridge is a *node-speed anchor*:
``flop = run_time × allocated_processors × flops_per_core``, i.e. the
work the job would represent on a core sustaining ``flops_per_core``.
Replayed on the heterogeneous Table I platform, jobs then run faster on
fast clusters and slower on slow ones, exactly like the synthetic
workloads.

Identity fields map onto the middleware model: the SWF user (or group)
becomes the submitting ``client`` and the queue (or partition) becomes
the requested ``service``.  Section III-B of the paper gives preferences
to requests, which real logs lack, so every replayed job carries the
neutral preference.

>>> from repro.workload.ingest.swf import SWFJob
>>> job = SWFJob(job_id=1, submit_time=30.0, run_time=60.0,
...              allocated_processors=4, user_id=7, queue=2)
>>> mapping = SWFTraceMap(flops_per_core=1e9)
>>> task = mapping.task_for(job, origin=30.0)
>>> (task.arrival_time, task.flop, task.client, task.service)
(0.0, 240000000000.0, 'user7', 'queue2')
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.simulation.task import Task
from repro.util.validation import ensure_positive
from repro.workload.ingest.swf import SWFJob, Source, parse_swf
from repro.workload.ingest.transforms import TraceTransform, apply_transforms

__all__ = [
    "SWFTraceMap",
    "tasks_from_swf",
    "load_swf_trace",
    "DEFAULT_FLOPS_PER_CORE",
]

#: Default node-speed anchor: one GFLOP/s per core, a deliberately round
#: number in the range of the Table I clusters (5–9.2 GFLOPS per node).
DEFAULT_FLOPS_PER_CORE = 1.0e9

@dataclass(frozen=True)
class SWFTraceMap:
    """Configuration of the SWF → :class:`Task` conversion.

    Attributes
    ----------
    flops_per_core:
        The node-speed anchor (FLOP/s) converting ``run_time ×
        allocated_processors`` core-seconds into a FLOP cost.
    client_by:
        ``"user"`` (default) or ``"group"`` — which identity field names
        the submitting client.  Jobs with the field unknown share the
        ``"<kind>?"`` client.
    service_by:
        ``"queue"`` (default) or ``"partition"`` — which field names the
        requested service; unknown maps to ``"<kind>?"``.

    Every task carries the neutral user preference (0.0): SWF has no
    column for it.

    Jobs whose runtime or processor count is unknown or zero carry no
    replayable work and are skipped by :meth:`task_for` (it returns
    ``None``); :func:`tasks_from_swf` counts them for reporting.

    >>> SWFTraceMap(client_by="team")
    Traceback (most recent call last):
        ...
    ValueError: client_by must be 'user' or 'group', got 'team'
    """

    flops_per_core: float = DEFAULT_FLOPS_PER_CORE
    client_by: str = "user"
    service_by: str = "queue"

    def __post_init__(self) -> None:
        ensure_positive(self.flops_per_core, "flops_per_core")
        if self.client_by not in ("user", "group"):
            raise ValueError(
                f"client_by must be 'user' or 'group', got {self.client_by!r}"
            )
        if self.service_by not in ("queue", "partition"):
            raise ValueError(
                f"service_by must be 'queue' or 'partition', got {self.service_by!r}"
            )

    def _client(self, job: SWFJob) -> str:
        value = job.user_id if self.client_by == "user" else job.group_id
        return f"{self.client_by}{value if value is not None else '?'}"

    def _service(self, job: SWFJob) -> str:
        value = job.queue if self.service_by == "queue" else job.partition
        return f"{self.service_by}{value if value is not None else '?'}"

    def task_for(self, job: SWFJob, *, origin: float = 0.0) -> Task | None:
        """The :class:`Task` replaying ``job``, or ``None`` if unplayable.

        ``origin`` is subtracted from the submit time so a windowed slice
        of a log starts at t=0.  A job submitted before ``origin`` is
        clamped to t=0 rather than rejected.
        """
        if not job.run_time or not job.allocated_processors:
            return None
        return Task(
            flop=job.run_time * job.allocated_processors * self.flops_per_core,
            arrival_time=max(0.0, job.submit_time - origin),
            client=self._client(job),
            service=self._service(job),
            cores=job.allocated_processors,
            requested_runtime=job.requested_time,
        )


def tasks_from_swf(
    jobs: Iterable[SWFJob],
    mapping: SWFTraceMap | None = None,
    *,
    skipped: list[SWFJob] | None = None,
) -> Iterator[Task]:
    """Convert a job stream into a task stream, lazily.

    The first job's submit time anchors t=0, so a replay starts
    immediately instead of idling through the trace's lead-in.
    Unplayable jobs (unknown/zero runtime or processors) are
    dropped; pass ``skipped`` to collect them.

    >>> from repro.workload.ingest.swf import SWFJob
    >>> jobs = [SWFJob(job_id=1, submit_time=100.0, run_time=10.0,
    ...                allocated_processors=1),
    ...         SWFJob(job_id=2, submit_time=160.0, run_time=20.0,
    ...                allocated_processors=2)]
    >>> [task.arrival_time for task in tasks_from_swf(jobs)]
    [0.0, 60.0]
    """
    mapping = mapping or SWFTraceMap()
    origin = None
    for job in jobs:
        if origin is None:
            origin = job.submit_time
        task = mapping.task_for(job, origin=origin)
        if task is None:
            if skipped is not None:
                skipped.append(job)
            continue
        yield task


def load_swf_trace(
    source: Source,
    mapping: SWFTraceMap | None = None,
    *,
    transforms: Sequence[TraceTransform] = (),
    skipped: list[SWFJob] | None = None,
) -> tuple[Task, ...]:
    """Parse, map and transform an SWF log into a sorted task tuple.

    The one-call form of the pipeline: :func:`.swf.parse_swf` →
    :func:`tasks_from_swf` → :func:`.transforms.apply_transforms`, with
    the result sorted by ``(arrival_time, task_id)`` like every other
    workload.  Pass ``skipped`` to collect the unplayable jobs the
    mapping dropped (``repro trace convert`` reports their count).

    >>> tasks = load_swf_trace(["1 0 0 60 2 -1 -1 -1 -1 -1 1 7 1 -1 1",
    ...                         "2 5 0 30 1 -1 -1 -1 -1 -1 1 8 1 -1 1"])
    >>> [(task.arrival_time, task.client) for task in tasks]
    [(0.0, 'user7'), (5.0, 'user8')]
    """
    stream = tasks_from_swf(parse_swf(source), mapping, skipped=skipped)
    tasks = list(apply_transforms(stream, transforms))
    tasks.sort(key=lambda task: (task.arrival_time, task.task_id))
    return tuple(tasks)
