#!/usr/bin/env python3
"""Multi-policy placement sweep driven by ``repro.runner`` (Table II, Figures 2-4).

Takes the three-policy grid of Table II from ``table2_grid``, executes it
through the sweep runner, and prints the comparison table plus per-node
distributions — at quick scale (for the paper-scale grid, use
``repro sweep --grid table2`` or ``repro table2``).
"""

from repro.experiments.reporting import energy_saving, format_task_distribution
from repro.runner import format_sweep_summary, run_scenarios
from repro.runner.grids import table2_grid


def main() -> None:
    outcome = run_scenarios(table2_grid("quick"))
    by_policy = outcome.by_policy()
    print(format_sweep_summary(outcome, title="Table II — makespan and energy per policy", group_by=("policy",)))
    print(f"\nPOWER energy saving vs RANDOM:      {energy_saving(by_policy, 'POWER', 'RANDOM'):6.1%}   (paper, full scale: 25%)")
    print(f"POWER energy saving vs PERFORMANCE: {energy_saving(by_policy, 'POWER', 'PERFORMANCE'):6.1%}   (paper, full scale: 19%)")
    for figure, policy in (("Figure 2", "POWER"), ("Figure 3", "PERFORMANCE"), ("Figure 4", "RANDOM")):
        tasks = by_policy[policy].detail["tasks_per_node"]
        print("\n" + format_task_distribution(tasks, title=f"{figure}: tasks per node ({policy})"))


if __name__ == "__main__":
    main()
