"""Table II — makespan and energy of RANDOM, POWER and PERFORMANCE.

Paper values (GRID'5000, 12 nodes, 1,040 requests):

    ==============  =========  =========  ===========
    .               RANDOM     POWER      PERFORMANCE
    Makespan (s)    2,336      2,321      2,228
    Energy (J)      6,041,436  4,528,547  5,618,175
    ==============  =========  =========  ===========

i.e. POWER saves ~25 % of energy against RANDOM and ~19 % against
PERFORMANCE while losing at most ~6 % of makespan.  The reproduction runs
on the simulated substrate, so absolute values differ; the benchmark
asserts the orderings and reports the measured factors.
"""

from __future__ import annotations

from repro.experiments.reporting import energy_saving, format_table2
from repro.runner.executor import run_scenarios


def test_bench_table2_policy_comparison(benchmark, table2_specs):
    results = benchmark.pedantic(
        lambda: run_scenarios(table2_specs.values()).by_policy(),
        rounds=2,
        iterations=1,
    )

    energies = {p: r.metrics["total_energy"] for p, r in results.items()}
    makespans = {p: r.metrics["makespan"] for p, r in results.items()}

    # Shape of Table II: POWER wins on energy, PERFORMANCE on makespan,
    # RANDOM is the worst of the three on energy.
    assert energies["POWER"] == min(energies.values())
    assert energies["RANDOM"] == max(energies.values())
    assert makespans["PERFORMANCE"] == min(makespans.values())
    # POWER's makespan penalty stays small (paper: <= 6 %).
    assert makespans["POWER"] / makespans["PERFORMANCE"] - 1.0 < 0.10

    print()
    print(format_table2(results))
    print(
        "POWER energy saving vs RANDOM: "
        f"{energy_saving(results, 'POWER', 'RANDOM'):.1%} (paper: 25%)"
    )
    print(
        "POWER energy saving vs PERFORMANCE: "
        f"{energy_saving(results, 'POWER', 'PERFORMANCE'):.1%} (paper: 19%)"
    )
    print(
        "POWER makespan loss vs PERFORMANCE: "
        f"{makespans['POWER'] / makespans['PERFORMANCE'] - 1.0:.1%} (paper: <= 6%)"
    )
