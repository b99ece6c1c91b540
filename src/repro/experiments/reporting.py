"""Plain-text renderers for the paper's tables and figures.

Each paper artifact is a grid plus a renderer: the CLI, the benchmarks
and the examples run a grid of :mod:`repro.runner.grids` and print its
results through these functions, so a reproduction run produces output
directly comparable to the paper — the rows of Table II, the per-node
task histograms of Figures 2–4, the per-cluster energy bars of Figure 5
(all from placement :class:`~repro.runner.store.ScenarioResult`s keyed by
policy), the metric points of Figures 6–7 (a
:class:`~repro.experiments.greenperf_eval.HeterogeneityResult`) and the
candidate/power time series of Figure 9 (the
:class:`~repro.lab.observe.LabResult` of the adaptive session).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Mapping

from repro.experiments.greenperf_eval import HeterogeneityResult
from repro.lab.observe import LabResult
from repro.runner.store import ScenarioResult
from repro.util.tables import render_table as _render_table


def energy_saving(
    results: Mapping[str, ScenarioResult], reference: str, against: str
) -> float:
    """Fractional energy saving of policy ``reference`` compared to ``against``.

    Table II reports POWER saving 25 % against RANDOM and 19 % against
    PERFORMANCE; this computes the equivalent figures for the
    reproduction.
    """
    other = results[against].metrics["total_energy"]
    if other == 0:
        raise ZeroDivisionError(f"policy {against!r} reports zero energy")
    return 1.0 - results[reference].metrics["total_energy"] / other


def format_table2(results: Mapping[str, ScenarioResult]) -> str:
    """Table II: makespan and energy per scheduling policy."""
    policies = list(results)
    headers = [""] + policies
    makespan_row = ["Makespan (s)"] + [
        f"{results[p].metrics['makespan']:,.0f}" for p in policies
    ]
    energy_row = ["Energy (J)"] + [
        f"{results[p].metrics['total_energy']:,.0f}" for p in policies
    ]
    return _render_table(headers, [makespan_row, energy_row])


def format_task_distribution(
    distribution: Mapping[str, int], *, title: str = "Tasks per node"
) -> str:
    """Figures 2–4: number of tasks executed by each node."""
    headers = ["node", "tasks"]
    rows = [
        [node, str(count)]
        for node, count in sorted(distribution.items())
    ]
    return f"{title}\n" + _render_table(headers, rows)


def format_energy_per_cluster(results: Mapping[str, ScenarioResult]) -> str:
    """Figure 5: energy consumption per cluster, one column per policy."""
    per_policy = {
        policy: result.detail["energy_per_cluster"] for policy, result in results.items()
    }
    clusters = sorted({c for values in per_policy.values() for c in values})
    headers = ["cluster"] + list(per_policy)
    rows = []
    for cluster in clusters:
        row = [cluster] + [
            f"{per_policy[policy].get(cluster, 0.0):,.0f}" for policy in per_policy
        ]
        rows.append(row)
    return _render_table(headers, rows)


def format_metric_points(result: HeterogeneityResult) -> str:
    """Figures 6–7: the POWER / GreenPerf / PERFORMANCE points and RANDOM area."""
    headers = ["policy", "mean energy/task (J)", "mean completion time (s)"]
    rows = [
        [
            name,
            f"{point.mean_energy_per_task:,.1f}",
            f"{point.mean_completion_time:,.1f}",
        ]
        for name, point in result.points.items()
    ]
    area = result.random_area
    rows.append(
        [
            "RANDOM (area)",
            f"{area.energy_min:,.1f} - {area.energy_max:,.1f}",
            f"{area.time_min:,.1f} - {area.time_max:,.1f}",
        ]
    )
    title = f"Metric comparison with {result.kinds} server types"
    return f"{title}\n" + _render_table(headers, rows)


def format_adaptive_series(result: LabResult) -> str:
    """Figure 9: candidate nodes and average power over time.

    Each row reads the power of the first window ending at or after its
    time.  The event list holds the timeline events the run reached: the
    engine fires an event at exactly the horizon, so those stay; later
    ones never happened.
    """
    headers = ["t (min)", "candidates", "avg power (W)"]
    power_by_window = dict(result.power_series)
    window_ends = sorted(power_by_window)
    rows = []
    for time, candidates in result.candidate_series:
        index = bisect_left(window_ends, time)
        power = power_by_window[window_ends[index]] if index < len(window_ends) else 0.0
        rows.append([f"{time / 60.0:,.0f}", str(candidates), f"{power:,.0f}"])
    events = result.timeline.events if result.timeline is not None else ()
    if result.horizon is not None:
        events = [event for event in events if event.time <= result.horizon]
    return (
        "Adaptive provisioning (Figure 9)\n"
        + _render_table(headers, rows)
        + "\nInjected events:\n"
        + "\n".join(event.describe() for event in events)
    )
