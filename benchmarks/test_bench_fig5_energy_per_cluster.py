"""Figure 5 — energy consumption per cluster for each policy.

"We can observe that distributing the workload using the RANDOM policy is
not particularly energy efficient as it guarantees that all the resources
are in use during the experiment."
"""

from __future__ import annotations

from repro.experiments.reporting import format_energy_per_cluster
from repro.runner.executor import run_scenarios


def test_bench_fig5_energy_per_cluster(benchmark, table2_specs):
    results = benchmark.pedantic(
        lambda: run_scenarios(table2_specs.values()).by_policy(),
        rounds=1,
        iterations=1,
    )

    per_policy = {
        policy: result.detail["energy_per_cluster"] for policy, result in results.items()
    }
    # Every policy reports energy for every cluster (nodes idle but powered).
    for energies in per_policy.values():
        assert set(energies) == {"orion", "taurus", "sagittaire"}
        assert all(value > 0 for value in energies.values())

    # The favoured cluster consumes more energy under the policy that
    # concentrates work on it than under the opposite policy.
    assert per_policy["POWER"]["taurus"] > per_policy["PERFORMANCE"]["taurus"]
    assert per_policy["PERFORMANCE"]["orion"] > per_policy["POWER"]["orion"]

    # RANDOM's total is the worst of the three (all resources in use).
    totals = {policy: sum(values.values()) for policy, values in per_policy.items()}
    assert totals["RANDOM"] == max(totals.values())

    print()
    print("Figure 5: energy per cluster (J)")
    print(format_energy_per_cluster(results))
