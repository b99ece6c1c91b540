"""Figure 2 — task distribution per node under the POWER policy.

The paper observes that "most jobs are computed by Taurus nodes, which
appear to be the most energy-efficient.  Execution on Orion and Sagittaire
occurs during the 'learning' phase or when Taurus nodes are overloaded."
"""

from __future__ import annotations

from repro.experiments.reporting import format_task_distribution
from repro.lab.compat import execute_spec


def test_bench_fig2_power_task_distribution(benchmark, table2_specs):
    result = benchmark.pedantic(
        lambda: execute_spec(table2_specs["POWER"]),
        rounds=2,
        iterations=1,
    )

    per_cluster = result.detail["tasks_per_cluster"]
    total = sum(per_cluster.values())
    # The Taurus cluster executes the majority of the tasks...
    assert per_cluster["taurus"] > 0.5 * total
    # ...while Orion and Sagittaire still execute some (learning phase /
    # overflow when Taurus is saturated).
    assert per_cluster.get("orion", 0) > 0
    # Every Taurus node takes part, not just one of them.
    taurus_nodes = [n for n in result.detail["tasks_per_node"] if n.startswith("taurus")]
    assert len(taurus_nodes) == 4

    print()
    print(format_task_distribution(result.detail["tasks_per_node"],
                                   title="Figure 2: tasks per node (POWER)"))
    print(f"Cluster shares: { {c: round(v / total, 2) for c, v in per_cluster.items()} }")
