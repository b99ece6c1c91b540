"""Ablation A1 — GreenPerf benefit as a function of platform heterogeneity.

The paper concludes that "the effectiveness of this metric strongly
relies on the heterogeneity of servers".  This bench quantifies that
claim: it sweeps the number of server types (2, 3, 4) and reports how
much trade-off improvement GreenPerf buys over the better of POWER and
PERFORMANCE at each heterogeneity level.
"""

from __future__ import annotations

from repro.experiments.greenperf_eval import HeterogeneityResult
from repro.runner.executor import run_scenarios
from repro.runner.grids import heterogeneity_grid


def _sweep():
    results = {}
    for kinds in (2, 3, 4):
        grid = heterogeneity_grid((kinds,), overrides={"tasks_per_client": 40})
        results[kinds] = HeterogeneityResult.from_results(
            run_scenarios(grid).results, kinds
        )
    return results


def test_bench_ablation_heterogeneity_sweep(benchmark):
    results = benchmark.pedantic(_sweep, rounds=2, iterations=1)

    gains = {}
    for kinds, result in results.items():
        best_single = min(
            result.tradeoff_score("POWER"), result.tradeoff_score("PERFORMANCE")
        )
        gains[kinds] = best_single / result.tradeoff_score("GREENPERF")

    # GreenPerf never hurts...
    assert all(gain >= 1.0 - 1e-9 for gain in gains.values())
    # ...and the benefit grows with heterogeneity (4 types >= 2 types).
    assert gains[4] >= gains[2]

    print()
    print("Ablation A1: GreenPerf trade-off gain vs best single-criterion policy")
    for kinds, gain in gains.items():
        print(f"  {kinds} server types: x{gain:.2f}")
