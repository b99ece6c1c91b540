"""Figure 7 — metric comparison with 4 server types (high heterogeneity).

Adding the Sim1 and Sim2 clusters of Table III makes the power-only and
power/performance rankings diverge: the paper reads Figure 7 as "a better
tradeoff between POWER and PERFORMANCE, highlighting the need for a
sufficient diversity of hardware to efficiently use GreenPerf."
"""

from __future__ import annotations

from repro.experiments.greenperf_eval import HeterogeneityResult
from repro.experiments.reporting import format_metric_points
from repro.runner.executor import run_scenarios
from repro.runner.grids import heterogeneity_grid


def test_bench_fig7_high_heterogeneity(benchmark):
    result = benchmark.pedantic(
        lambda: HeterogeneityResult.from_results(
            run_scenarios(heterogeneity_grid((4,))).results, 4
        ),
        rounds=3,
        iterations=1,
    )

    g = result.point("POWER")
    gp = result.point("GREENPERF")
    p = result.point("PERFORMANCE")

    # GreenPerf achieves the best energy x time trade-off of the three.
    assert result.greenperf_improves_tradeoff()
    # It is much faster than the power-only choice...
    assert gp.mean_completion_time < g.mean_completion_time
    # ...and much cheaper than the performance-only choice.
    assert gp.mean_energy_per_task < p.mean_energy_per_task

    print()
    print(format_metric_points(result))
    scores = {name: result.tradeoff_score(name) for name in result.points}
    print(f"Trade-off scores (lower is better): { {k: round(v, 2) for k, v in scores.items()} }")
