"""Figure 6 — metric comparison with 2 server types (low heterogeneity).

With two similar server types (Orion and Taurus of Table I) the GreenPerf
ranking coincides with the pure POWER ranking: the metric brings nothing
over the simpler criterion, which is the paper's motivation for the
higher-heterogeneity scenario of Figure 7.
"""

from __future__ import annotations

import pytest

from repro.experiments.greenperf_eval import HeterogeneityResult
from repro.experiments.reporting import format_metric_points
from repro.runner.executor import run_scenarios
from repro.runner.grids import heterogeneity_grid


def test_bench_fig6_low_heterogeneity(benchmark):
    result = benchmark.pedantic(
        lambda: HeterogeneityResult.from_results(
            run_scenarios(heterogeneity_grid((2,))).results, 2
        ),
        rounds=3,
        iterations=1,
    )

    g = result.point("POWER")
    gp = result.point("GREENPERF")
    p = result.point("PERFORMANCE")

    # Low heterogeneity: GreenPerf is indistinguishable from POWER.
    assert gp.mean_energy_per_task == pytest.approx(g.mean_energy_per_task, rel=0.05)
    assert gp.mean_completion_time == pytest.approx(g.mean_completion_time, rel=0.05)
    # PERFORMANCE is faster but consumes more energy per task.
    assert p.mean_completion_time <= g.mean_completion_time
    assert p.mean_energy_per_task > g.mean_energy_per_task
    # The RANDOM area sits between the two extremes on the energy axis.
    assert g.mean_energy_per_task <= result.random_area.energy_max
    assert p.mean_energy_per_task >= result.random_area.energy_min

    print()
    print(format_metric_points(result))
