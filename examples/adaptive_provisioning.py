#!/usr/bin/env python3
"""Adaptive provisioning under energy-related events (the Figure 9 scenario).

Replays the paper's 260-minute scenario: two scheduled electricity-cost
drops, an unexpected heat peak and its recovery.  The provisioning planner
checks the platform status every 10 minutes (with a 20-minute look-ahead
on scheduled events), adapts the candidate-node pool through the
administrator rules and powers unused nodes down; a closed-loop client
keeps the candidate pool busy.  The script prints the candidate-count and
average-power time series and an ASCII rendering of the candidate curve.

Run with::

    python examples/adaptive_provisioning.py [--minutes 260]
"""

from __future__ import annotations

import argparse

from repro.experiments.reporting import format_adaptive_series
from repro.lab.compat import session_for_spec
from repro.runner.spec import ScenarioSpec


def ascii_curve(series, total_nodes, *, width: int = 52) -> str:
    """A small ASCII chart of the candidate count over time."""
    lines = []
    for time, count in series:
        bar = "#" * int(round(width * count / total_nodes))
        lines.append(f"{time / 60.0:6.0f} min |{bar:<{width}}| {count:2d}")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--minutes",
        type=float,
        default=260.0,
        help="length of the scenario in minutes (default: 260, as in the paper)",
    )
    args = parser.parse_args()

    spec = ScenarioSpec(
        experiment="adaptive", policy="GREENPERF", horizon=args.minutes * 60.0
    )
    result = session_for_spec(spec).run()

    print(format_adaptive_series(result))
    print()
    print("Candidate pool over time:")
    print(ascii_curve(result.candidate_series, result.total_nodes))
    print()
    print(f"Completed tasks: {result.completed_tasks}")
    print(f"Total energy:    {result.total_energy / 1e6:.2f} MJ")


if __name__ == "__main__":
    main()
