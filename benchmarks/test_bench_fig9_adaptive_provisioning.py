"""Figure 9 — evolution of candidate nodes and power consumption over 260 min.

The benchmark replays the paper's event schedule:

* Event 1 (scheduled):   electricity cost 1.0 -> 0.8, known 20 min ahead;
* Event 2 (scheduled):   electricity cost 0.8 -> 0.5 (all nodes allowed);
* Event 3 (unexpected):  instant temperature rise above 25 degC;
* Event 4 (unexpected):  temperature back in range.

and asserts the documented reactions: a progressive ramp-up to 8 and then
12 candidates, a staged reduction to 2 during the heat peak, the regrowth
after recovery, and a measured power consumption that tracks the candidate
pool with a delay (running tasks are allowed to complete).
"""

from __future__ import annotations

from repro.experiments.reporting import format_adaptive_series
from repro.lab.compat import session_for_spec
from repro.runner.spec import ScenarioSpec

_MIN = 60.0


def test_bench_fig9_adaptive_provisioning(benchmark):
    spec = ScenarioSpec(experiment="adaptive", policy="GREENPERF")
    result = benchmark.pedantic(
        lambda: session_for_spec(spec).run(), rounds=1, iterations=1
    )

    candidates = dict(result.candidate_series)

    # The experiment starts on the regular tariff: 40 % of 12 nodes -> 4.
    assert result.candidate_series[0][1] == 4
    # Event 1: 8 candidates are ready when the 0.8 tariff starts (t+60 min).
    assert result.candidates_at(60 * _MIN) == 8
    # Event 2: every node is a candidate while the 0.5 tariff is in force.
    assert result.candidates_at(150 * _MIN) == 12
    # Event 3: the heat peak shrinks the pool to 2 nodes, in steps.
    assert min(count for time, count in result.candidate_series if time >= 160 * _MIN) == 2
    between = [
        count
        for time, count in result.candidate_series
        if 160 * _MIN <= time <= 200 * _MIN
    ]
    assert any(2 < count < 12 for count in between), "ramp-down must be staged"
    # Event 4: the pool regrows after the temperature returns in range.
    assert result.candidate_series[-1][1] > 2

    # Power tracks the candidate pool: full-pool power >> heat-capped power.
    full_pool_power = result.mean_power_between(120 * _MIN, 160 * _MIN)
    capped_power = result.mean_power_between(220 * _MIN, 240 * _MIN)
    assert full_pool_power > 2 * capped_power

    print()
    print(format_adaptive_series(result))
    print(f"Completed tasks: {result.completed_tasks}")
    print(f"Total energy: {result.total_energy / 1e6:.2f} MJ")
