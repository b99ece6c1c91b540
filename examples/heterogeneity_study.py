#!/usr/bin/env python3
"""GreenPerf and platform heterogeneity (the Figures 6–7 study).

Runs the paper's metric-comparison simulation for 2, 3 and 4 server types
and prints, for each scenario, the POWER / GreenPerf / PERFORMANCE points
and the RANDOM area.  With two similar server types GreenPerf collapses
onto the POWER choice; with four types it clearly improves the
energy × time trade-off — "the effectiveness of this metric strongly
relies on the heterogeneity of servers".

Run with::

    python examples/heterogeneity_study.py
"""

from __future__ import annotations

from repro.experiments.greenperf_eval import HeterogeneityResult
from repro.experiments.reporting import format_metric_points
from repro.runner import run_scenarios
from repro.runner.grids import heterogeneity_grid


def main() -> None:
    for kinds in (2, 3, 4):
        outcome = run_scenarios(heterogeneity_grid((kinds,)))
        result = HeterogeneityResult.from_results(outcome.results, kinds)
        print(format_metric_points(result))
        scores = {name: result.tradeoff_score(name) for name in result.points}
        formatted = ", ".join(f"{name}: {score:.2f}" for name, score in scores.items())
        print(f"Trade-off scores (lower is better): {formatted}")
        print(
            "GreenPerf achieves the best trade-off"
            if result.greenperf_improves_tradeoff()
            else "GreenPerf does not improve on the single-criterion policies"
        )
        print()


if __name__ == "__main__":
    main()
