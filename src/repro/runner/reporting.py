"""Sweep progress and comparison reporting.

Two renderers for sweep runs:

* :class:`SweepProgressPrinter` — a progress callback for
  :func:`repro.runner.executor.run_scenarios` that prints one line per
  scenario.  Completions arrive in arbitrary order from the worker pool;
  the printer buffers them and flushes strictly in *grid order*, so the
  progress log of a parallel sweep is byte-identical to a serial one.
* :func:`format_sweep_summary` — the aggregated comparison table
  (mean/percentiles of makespan, energy and GreenPerf per group key).
* :func:`format_sweep_profile` — per-scenario wall time and events/sec of
  a profiled run (``repro sweep --profile``).
"""

from __future__ import annotations

from typing import Sequence

from repro.runner.executor import SweepOutcome
from repro.runner.store import (
    SUMMARY_METRICS,
    SUMMARY_PERCENTILES,
    ScenarioResult,
    summarize,
)
from repro.util.phases import PHASES
from repro.util.tables import render_table


class SweepProgressPrinter:
    """Progress callback printing ``[k/N] run|hit <scenario-id>`` lines.

    Out-of-order completions are buffered until every earlier scenario has
    completed, which keeps the output deterministic under any worker
    scheduling.  A streaming sweep whose total is unknown up front
    (a lazy :func:`~repro.runner.spec.iter_grid` stream, multi-worker
    claim passes) prints ``?``
    in place of ``N``.
    """

    def __init__(self) -> None:
        self._buffered: dict[int, ScenarioResult] = {}
        self._next_index = 0

    def __call__(self, index: int, result: ScenarioResult, total: int | None) -> None:
        self._buffered[index] = result
        while self._next_index in self._buffered:
            flushed = self._buffered.pop(self._next_index)
            status = "hit" if flushed.cached else "run"
            denominator = "?" if total is None else f"{total}"
            print(
                f"[{self._next_index + 1:>3}/{denominator}] {status}  "
                f"{flushed.spec.scenario_id}"
            )
            self._next_index += 1


def format_sweep_summary(
    outcome: SweepOutcome,
    *,
    title: str | None = None,
    group_by: Sequence[str] = ("experiment", "policy"),
) -> str:
    """The aggregated comparison table of a sweep outcome.

    One row per group key, with scenario count and mean, p50 and p95
    columns for every metric of :data:`SUMMARY_METRICS`.  Row and column
    order are deterministic, so two runs of the same grid — at any
    ``--jobs`` level — format identically.
    """
    rows = summarize(outcome.results, group_by=group_by)
    headers = list(group_by) + ["n"]
    for metric in SUMMARY_METRICS:
        headers.append(f"{metric} mean")
        for q in SUMMARY_PERCENTILES:
            headers.append(f"{metric} p{q:g}")

    def _cell(row, key: str) -> str:
        value = row.get(key)
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:,.1f}"
        return str(value)

    body = []
    for row in rows:
        cells = [str(row[name]) for name in group_by]
        cells.append(str(row["count"]))
        for metric in SUMMARY_METRICS:
            cells.append(_cell(row, f"{metric}_mean"))
            for q in SUMMARY_PERCENTILES:
                cells.append(_cell(row, f"{metric}_p{q:g}"))
        body.append(cells)

    lines = []
    if title:
        lines.append(title)
    lines.append(
        f"{outcome.total} scenarios — {outcome.executed} executed, "
        f"{outcome.cached} cached"
    )
    lines.append(render_table(headers, body))
    return "\n".join(lines)


def format_sweep_profile(outcome: SweepOutcome) -> str:
    """Per-scenario wall time and event throughput of a profiled sweep.

    Requires an outcome produced with ``run_scenarios(profile=True)``;
    cache hits show as ``hit`` with no timing.  The ``events`` metric is
    recorded by the executors (engine events for simulation-backed
    scenarios); results cached by older versions may not carry it, in
    which case the throughput column is blank.  When any executed scenario
    reports per-phase seconds (estimation / scoring / dispatch / energy),
    one column per phase is appended so hot spots stay attributable.
    """
    if not outcome.wall_times:
        raise ValueError("outcome was not profiled; pass profile=True to the runner")
    phase_times = outcome.phase_times or ({},) * len(outcome.results)
    active_phases = tuple(
        phase
        for phase in PHASES
        if any(phase in totals for totals in phase_times)
    )
    rows = []
    total_wall = 0.0
    total_events = 0.0
    events_wall = 0.0  # wall time of event-bearing scenarios only
    phase_totals = {phase: 0.0 for phase in active_phases}
    for result, wall, totals in zip(outcome.results, outcome.wall_times, phase_times):
        events = result.metrics.get("events")
        if result.cached:
            rows.append(
                (result.spec.scenario_id, "hit", "-", "-")
                + ("-",) * len(active_phases)
            )
            continue
        total_wall += wall
        rate = "-"
        if events and wall > 0:
            total_events += events
            events_wall += wall
            rate = f"{events / wall:,.0f}"
        phase_cells = []
        for phase in active_phases:
            seconds = totals.get(phase)
            phase_cells.append(f"{seconds:.3f}" if seconds is not None else "-")
            if seconds is not None:
                phase_totals[phase] += seconds
        rows.append(
            (
                result.spec.scenario_id,
                f"{wall:.3f}",
                f"{events:,.0f}" if events is not None else "-",
                rate,
            )
            + tuple(phase_cells)
        )
    lines = ["Per-scenario profile:"]
    headers = ("scenario", "wall s", "events", "events/s") + tuple(
        f"{phase} s" for phase in active_phases
    )
    lines.append(render_table(headers, rows))
    if active_phases and total_wall > 0:
        attributed = sum(phase_totals.values())
        breakdown = ", ".join(
            f"{phase} {phase_totals[phase]:.3f} s"
            f" ({phase_totals[phase] / total_wall:.0%})"
            for phase in active_phases
        )
        lines.append(
            f"phase breakdown: {breakdown}, "
            f"other {max(total_wall - attributed, 0.0):.3f} s"
        )
    if total_wall > 0:
        summary = f"executed wall time {total_wall:.3f} s"
        if total_events:
            # Scenarios without an "events" metric (no event engine) are
            # excluded from the denominator so the aggregate measures
            # genuine engine throughput.
            summary += f", {total_events / events_wall:,.0f} events/s overall"
        lines.append(summary)
        if total_events:
            # The whole-sweep figure divides by *all* executed wall time
            # (event-less scenarios included): the number a capacity plan
            # would use for "how fast does this grid sweep end to end".
            lines.append(
                f"whole sweep: {total_events:,.0f} events in {total_wall:.3f} s "
                f"wall = {total_events / total_wall:,.0f} events/s"
            )
    return "\n".join(lines)
