"""Ablation A4 — dynamic vs static power estimation for GreenPerf.

Section III-A discusses two ways of obtaining a server's power figure: a
one-off benchmark (static) or the average over recent requests (dynamic,
the paper's choice).  This bench runs the placement workload with the
GreenPerf plug-in in both modes and reports the difference; the two modes
must agree on the headline outcome (Taurus-heavy placement) because the
platform's power ordering is stable, which is exactly why the dynamic
estimate is a safe default.
"""

from __future__ import annotations

from repro.core.greenperf import PowerEstimationMode
from repro.core.policies import GreenPerfPolicy
from repro.infrastructure.platform import grid5000_placement_platform
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.hierarchy import build_hierarchy
from repro.workload.generator import BurstThenContinuousWorkload

#: Table I platform size, requests per core and task cost of the sweep.
NODES_PER_CLUSTER = 2
REQUESTS_PER_CORE = 4
TASK_FLOP = 2.0e10
SAMPLE_PERIOD = 5.0


def _run(mode: PowerEstimationMode):
    platform = grid5000_placement_platform(nodes_per_cluster=NODES_PER_CLUSTER)
    master, seds = build_hierarchy(platform, scheduler=GreenPerfPolicy(mode=mode))
    simulation = MiddlewareSimulation(
        platform, master, seds, sample_period=SAMPLE_PERIOD,
        policy_name=f"GREENPERF({mode.value})",
    )
    workload = BurstThenContinuousWorkload(
        total_tasks=REQUESTS_PER_CORE * platform.total_cores,
        burst_size=platform.total_cores,
        continuous_rate=1.0,
        flop_per_task=TASK_FLOP,
    )
    simulation.submit_workload(workload.generate())
    return simulation.run()


def _both():
    return {mode: _run(mode) for mode in PowerEstimationMode}


def test_bench_ablation_dynamic_vs_static_estimation(benchmark):
    results = benchmark.pedantic(_both, rounds=1, iterations=1)

    for mode, result in results.items():
        per_cluster = result.metrics.tasks_per_cluster
        total = sum(per_cluster.values())
        # Both estimation modes keep the bulk of the work on Taurus.
        assert per_cluster["taurus"] > 0.5 * total, mode

    dynamic = results[PowerEstimationMode.DYNAMIC].metrics
    static = results[PowerEstimationMode.STATIC].metrics

    print()
    print("Ablation A4: dynamic vs static power estimation")
    print(f"  dynamic: makespan {dynamic.makespan:.0f} s, energy {dynamic.total_energy:.0f} J")
    print(f"  static:  makespan {static.makespan:.0f} s, energy {static.total_energy:.0f} J")
