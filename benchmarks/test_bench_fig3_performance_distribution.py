"""Figure 3 — task distribution per node under the PERFORMANCE policy.

"The load balancing of jobs is similar to Figure 2, with the majority of
tasks executed on Orion nodes."
"""

from __future__ import annotations

from repro.experiments.reporting import format_task_distribution
from repro.lab.compat import execute_spec


def test_bench_fig3_performance_task_distribution(benchmark, table2_specs):
    result = benchmark.pedantic(
        lambda: execute_spec(table2_specs["PERFORMANCE"]),
        rounds=2,
        iterations=1,
    )

    per_cluster = result.detail["tasks_per_cluster"]
    total = sum(per_cluster.values())
    assert per_cluster["orion"] > 0.5 * total
    # Sagittaire, the slowest cluster, executes the fewest tasks.
    assert per_cluster.get("sagittaire", 0) == min(per_cluster.values())

    print()
    print(format_task_distribution(result.detail["tasks_per_node"],
                                   title="Figure 3: tasks per node (PERFORMANCE)"))
    print(f"Cluster shares: { {c: round(v / total, 2) for c, v in per_cluster.items()} }")
