"""Uniform observation of a lab run: result object and metric extraction.

Every :meth:`~repro.lab.session.LabSession.run` returns a
:class:`LabResult` — one shape for all experiment families — from which
each family post-processes its figures:

* the placement experiment reads ``simulation`` (the full
  :class:`~repro.middleware.driver.SimulationResult`: per-node task
  histograms, per-cluster energy);
* the heterogeneity study reads ``point`` (a :class:`PointSummary` of
  mean energy / completion time);
* the adaptive experiment reads ``candidate_series`` / ``power_series``
  / ``planning_entries`` (the Figure 9 trajectory).

``metrics`` is the flat scalar summary shared by the sweep runner and
``repro lab run``; the helpers below build it from the same sources the
pre-lab experiment modules used, so refactored paths stay bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.infrastructure.energy import SegmentEnergyLog
from repro.middleware.driver import SimulationResult
from repro.scenario.events import EventTimeline

if TYPE_CHECKING:
    import numpy as np

    from repro.policy.queue.simulator import QueueSchedule


def greenperf_metric(total_energy: float, task_count: float) -> float:
    """Run-level GreenPerf: energy per completed task (power/throughput).

    >>> greenperf_metric(100.0, 4.0)
    25.0
    >>> greenperf_metric(100.0, 0.0)
    0.0
    """
    return total_energy / task_count if task_count else 0.0


def windowed_power(
    energy_log: SegmentEnergyLog, *, window: float, duration: float
) -> tuple[tuple[float, float], ...]:
    """Average platform power per ``window`` seconds (the crosses of Figure 9).

    Window ``k`` covers the sampling instants in ``[k*window, (k+1)*window)``
    for every ``k`` with ``k*window < duration``; it is reported as
    ``((k+1)*window, mean watts)`` and skipped if it holds no instant.
    Power is piecewise-constant, so the platform total is summed once per
    interval between two nodes' change points (in node registration
    order, as a per-instant sum would) and only then spread over the
    instants: the cost grows with nodes × change points plus one pass
    over the instants, not with nodes × simulated seconds.

    >>> windowed_power(SegmentEnergyLog(), window=0.0, duration=4.0)
    Traceback (most recent call last):
    ...
    ValueError: window must be positive and finite, got 0.0
    """
    if not (math.isfinite(window) and window > 0):
        raise ValueError(f"window must be positive and finite, got {window!r}")
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration!r}")
    import numpy as np

    watts = _platform_watts(energy_log)
    if watts.size == 0:
        return ()
    times = np.arange(watts.size, dtype=float) * energy_log.sample_period
    # Window k opens while its start ``k * window`` is before ``duration``
    # and not after the last instant (later windows are empty).  Bounds
    # come from the index, never accumulated: ``bounds[k]`` is the start
    # of window k and the end of window k - 1.
    last = float(times[-1])
    starts = np.arange(math.floor(min(duration, last) / window) + 2, dtype=float) * window
    count = int(np.count_nonzero((starts < duration) & (starts <= last)))
    if count == 0:
        return ()
    bounds = np.arange(count + 1, dtype=float) * window
    edges = np.searchsorted(times, bounds)
    widths = np.diff(edges)
    series: list[tuple[float, float]] = []
    # Adjacent windows of one width tile a contiguous block of instants,
    # so each run of them is averaged with one reshaped mean (bit-identical
    # to a mean per window); empty windows are skipped.
    cuts = (np.flatnonzero(np.diff(widths)) + 1).tolist()
    for first, stop in zip([0, *cuts], [*cuts, count]):
        width = int(widths[first])
        if width:
            block = watts[edges[first] : edges[stop]].reshape(stop - first, width)
            series.extend(zip(bounds[first + 1 : stop + 1].tolist(), block.mean(axis=1).tolist()))
    return tuple(series)


def _platform_watts(energy_log: SegmentEnergyLog) -> np.ndarray:
    """Per-instant platform power, summed on the intervals between change points.

    Every node's segments are read into one flat array; only the final
    accumulation walks the nodes, in registration order, so each
    interval's total is summed exactly as a per-instant sum would.
    """
    import numpy as np

    segments = energy_log.segments()
    if not segments:
        return np.empty(0, dtype=float)
    counts = [count for node in energy_log.nodes if (count := len(energy_log.segments(node)))]
    ticks = np.fromiter((segment.ticks for segment in segments), dtype=np.int64, count=len(segments))
    node_watts = np.fromiter((segment.watts for segment in segments), dtype=float, count=len(segments))
    stops = np.cumsum(counts)
    starts = stops - counts
    # The instant index at which each segment ends, counted from its node's start.
    ends = np.cumsum(ticks)
    ends -= np.repeat(ends[starts] - ticks[starts], counts)
    # Instant indices at which any node's power may change.
    bounds = np.unique(np.concatenate(([0], ends)))
    # Segment i covers intervals [at[i - 1], at[i]) of its node (from 0 for
    # the first); past its last segment a node adds nothing, exactly as a
    # shorter trace would.
    at = np.searchsorted(bounds, ends)
    spans = np.diff(at, prepend=0)
    spans[starts] = at[starts]
    totals = np.zeros(bounds.size - 1, dtype=float)
    for start, stop, end in zip(starts.tolist(), stops.tolist(), at[stops - 1].tolist()):
        totals[:end] += np.repeat(node_watts[start:stop], spans[start:stop])
    return np.repeat(totals, np.diff(bounds))


def series_value_at(series: Sequence[tuple[float, float]], time: float):
    """The value of a step series in effect at ``time`` (``0`` before its first step).

    >>> series_value_at([(0.0, 4), (600.0, 6)], 300.0)
    4
    >>> series_value_at([], 300.0)
    0
    """
    value = 0
    for step_time, step_value in series:
        if step_time <= time:
            value = step_value
        else:
            break
    return value


@dataclass(frozen=True)
class PointSummary:
    """The heterogeneity study's figure coordinates for one policy run."""

    policy: str
    mean_energy_per_task: float
    mean_completion_time: float
    total_energy: float
    makespan: float
    tasks_per_type: Mapping[str, int]

    @classmethod
    def from_executions(
        cls,
        *,
        policy: str,
        energies: Sequence[float],
        durations: Sequence[float],
        tasks_per_type: Mapping[str, int],
        makespan: float,
    ) -> "PointSummary":
        """Aggregate per-task energies/durations into the figure coordinates."""
        import numpy as np

        return cls(
            policy=policy,
            mean_energy_per_task=float(np.mean(energies)) if energies else 0.0,
            mean_completion_time=float(np.mean(durations)) if durations else 0.0,
            total_energy=float(np.sum(energies)),
            makespan=makespan,
            tasks_per_type=dict(tasks_per_type),
        )


@dataclass(frozen=True)
class LabResult:
    """Everything one lab run produced, in a family-independent shape."""

    backend: str  #: ``"middleware"``, ``"point"`` or ``"queue"``
    metrics: Mapping[str, float]
    detail: Mapping[str, object] = field(default_factory=dict)
    #: Full driver result (middleware backend only).
    simulation: SimulationResult | None = None
    #: Figure 6/7 coordinates (point backend only).
    point: PointSummary | None = None
    #: Full batch schedule (queue backend only).
    queue: QueueSchedule | None = None
    #: The resolved timeline the run was driven by, if any.
    timeline: EventTimeline | None = None
    #: Provisioning trajectory (sessions with a provisioning source).
    candidate_series: tuple[tuple[float, int], ...] = ()
    power_series: tuple[tuple[float, float], ...] = ()
    planning_entries: tuple = ()
    total_nodes: int = 0
    horizon: float | None = None

    @property
    def completed_tasks(self) -> int:
        """Completed task count, whichever backend produced it."""
        return int(self.metrics.get("task_count", 0.0))

    @property
    def total_energy(self) -> float:
        """Total platform energy (J)."""
        return float(self.metrics.get("total_energy", 0.0))

    def candidates_at(self, time: float) -> int:
        """Candidate count in effect at simulated ``time`` (s)."""
        return int(series_value_at(self.candidate_series, time))

    def mean_power_between(self, start: float, end: float) -> float:
        """Average platform power over ``[start, end]`` from the windowed series.

        >>> result = LabResult("middleware", {}, power_series=((600.0, 10.0), (1200.0, 30.0)))
        >>> result.mean_power_between(0.0, 1200.0)
        20.0
        """
        import numpy as np

        values = [power for time, power in self.power_series if start <= time <= end]
        return float(np.mean(values)) if values else 0.0


# -- per-backend metric extraction ------------------------------------------------------


def middleware_metrics(
    result: SimulationResult, *, include_faults: bool = False
) -> dict[str, float]:
    """The flat metric summary of an open-loop middleware run.

    Matches the historical placement-family sweep metrics exactly;
    ``include_faults`` adds the displaced-task counters (timeline runs).
    """
    metrics = result.metrics
    summary = {
        "makespan": metrics.makespan,
        "total_energy": metrics.total_energy,
        "task_count": float(metrics.task_count),
        "mean_response_time": metrics.mean_response_time,
        "mean_queue_delay": metrics.mean_queue_delay,
        "greenperf": greenperf_metric(metrics.total_energy, metrics.task_count),
        "events": float(result.events_processed),
    }
    if include_faults:
        summary["failed_tasks"] = float(result.failed_tasks)
        summary["rejected_tasks"] = float(result.rejected_tasks)
    return summary


def middleware_detail(result: SimulationResult) -> dict[str, object]:
    """The per-node/cluster histograms of an open-loop middleware run."""
    metrics = result.metrics
    return {
        "tasks_per_node": dict(metrics.tasks_per_node),
        "tasks_per_cluster": dict(metrics.tasks_per_cluster),
        "energy_per_cluster": dict(metrics.energy_per_cluster),
    }


def provisioned_metrics(
    *,
    duration: float,
    total_energy: float,
    completed_tasks: int,
    final_candidates: int,
    events_processed: int,
    failed_tasks: int,
    rejected_tasks: int,
) -> dict[str, float]:
    """The flat metric summary of a provisioned (adaptive-family) run.

    Matches the historical adaptive-family sweep metrics exactly.
    """
    return {
        "makespan": duration,
        "total_energy": total_energy,
        "task_count": float(completed_tasks),
        "final_candidates": float(final_candidates),
        "greenperf": greenperf_metric(total_energy, float(completed_tasks)),
        "events": float(events_processed),
        "failed_tasks": float(failed_tasks),
        "rejected_tasks": float(rejected_tasks),
    }


def queue_energy(
    schedule: QueueSchedule,
    *,
    idle_power_per_core: float,
    busy_power_delta_per_core: float,
    span: float,
) -> float:
    """Coarse platform energy of a queue-backend run (J).

    Alive capacity draws idle power for the whole observation span
    (failed cores draw nothing — the capacity step function already
    excludes them) and every busy core-second adds the average
    peak-minus-idle delta.  This is deliberately coarser than the
    middleware backend's per-node energy accountant: the queue family
    compares *ordering and packing* decisions on one aggregated
    capacity, so per-node power attribution does not exist.

    >>> from repro.policy.queue.simulator import QueueSchedule
    >>> schedule = QueueSchedule(
    ...     policy_name="FCFS", capacity=4, records=(), slices=(),
    ...     capacity_steps=((0.0, 4),), busy_core_seconds=10.0,
    ...     makespan=5.0, horizon=None)
    >>> queue_energy(schedule, idle_power_per_core=2.0,
    ...              busy_power_delta_per_core=3.0, span=5.0)
    70.0
    """
    idle_core_seconds = 0.0
    steps = schedule.capacity_steps
    for index, (time, cores) in enumerate(steps):
        end = steps[index + 1][0] if index + 1 < len(steps) else span
        end = min(end, span)
        if end > time:
            idle_core_seconds += cores * (end - time)
    return (
        idle_power_per_core * idle_core_seconds
        + busy_power_delta_per_core * schedule.busy_core_seconds
    )


def queue_metrics(schedule: QueueSchedule, *, total_energy: float) -> dict[str, float]:
    """The flat metric summary of a queue-backend run.

    ``task_count`` counts completed jobs so ``greenperf`` (energy per
    completed job) is comparable across the policy families; the
    outcome partition (submitted = completed + failed + queued +
    running) is carried in full so conservation is visible in every
    sweep row.
    """
    counts = schedule.counts
    completed = float(counts["completed"])
    return {
        "makespan": schedule.makespan,
        "total_energy": total_energy,
        "task_count": completed,
        "mean_wait": schedule.mean_wait,
        "greenperf": greenperf_metric(total_energy, completed),
        "submitted": float(counts["submitted"]),
        "failed_tasks": float(counts["failed"]),
        "queued_tasks": float(counts["queued"]),
        "running_tasks": float(counts["running"]),
    }


def point_summary_metrics(point: PointSummary) -> dict[str, float]:
    """The flat metric summary of a point-study run.

    Matches the historical heterogeneity-family sweep metrics exactly.
    No "events" metric: the closed-loop study runs without the event
    engine, and a fabricated count would pollute the profile report's
    events/sec aggregate.
    """
    task_count = float(sum(point.tasks_per_type.values()))
    return {
        "makespan": point.makespan,
        "total_energy": point.total_energy,
        "task_count": task_count,
        "mean_energy_per_task": point.mean_energy_per_task,
        "mean_completion_time": point.mean_completion_time,
        "greenperf": greenperf_metric(point.total_energy, task_count),
    }
