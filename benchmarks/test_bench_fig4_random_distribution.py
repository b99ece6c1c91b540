"""Figure 4 — task distribution per node under the RANDOM policy.

"Despite a random distribution of jobs, Sagittaire nodes compute less
tasks than other nodes.  That is explained by the fact that a single task
is computed slower on those nodes, thus, they are less frequently
available when decisions are made."
"""

from __future__ import annotations

from repro.experiments.reporting import format_task_distribution
from repro.lab.compat import execute_spec


def test_bench_fig4_random_task_distribution(benchmark, table2_specs):
    result = benchmark.pedantic(
        lambda: execute_spec(table2_specs["RANDOM"]),
        rounds=2,
        iterations=1,
    )

    per_cluster = result.detail["tasks_per_cluster"]
    per_node = result.detail["tasks_per_node"]
    # Every cluster takes part under RANDOM...
    assert set(per_cluster) == {"orion", "taurus", "sagittaire"}
    # ...but the slow Sagittaire nodes execute the fewest tasks.
    assert per_cluster["sagittaire"] == min(per_cluster.values())
    mean_sagittaire = per_cluster["sagittaire"] / 4
    mean_fast = (per_cluster["orion"] + per_cluster["taurus"]) / 8
    assert mean_sagittaire < mean_fast
    # Orion and Taurus receive comparable shares (random is fair among the
    # clusters that can absorb the load).
    assert abs(per_cluster["orion"] - per_cluster["taurus"]) < 0.25 * sum(per_cluster.values())

    print()
    print(format_task_distribution(per_node, title="Figure 4: tasks per node (RANDOM)"))
