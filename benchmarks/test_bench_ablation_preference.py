"""Ablation A2 — sweep of the user preference P in the score of Equation 6.

The score-based green scheduler interpolates between the PERFORMANCE-like
behaviour (P -> -0.9) and the energy-seeking behaviour (P -> +0.9).  This
bench runs the placement workload for several values of P and reports the
resulting makespan/energy frontier, checking that the two ends of the
sweep actually bracket the trade-off.
"""

from __future__ import annotations

from repro.core.policies import GreenSchedulerPolicy
from repro.infrastructure.platform import grid5000_placement_platform
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.hierarchy import build_hierarchy
from repro.workload.generator import BurstThenContinuousWorkload

#: Reduced-but-representative configuration (one node per cluster keeps the
#: sweep fast while preserving the heterogeneity that drives the trade-off).
NODES_PER_CLUSTER = 1
REQUESTS_PER_CORE = 4
TASK_FLOP = 2.0e10
SAMPLE_PERIOD = 5.0

PREFERENCES = (-0.9, -0.5, 0.0, 0.5, 0.9)


def _run_with_preference(preference: float):
    platform = grid5000_placement_platform(nodes_per_cluster=NODES_PER_CLUSTER)
    master, seds = build_hierarchy(
        platform, scheduler=GreenSchedulerPolicy(default_preference=preference)
    )
    simulation = MiddlewareSimulation(
        platform, master, seds, sample_period=SAMPLE_PERIOD,
        policy_name=f"GREEN_SCORE(P={preference})",
    )
    workload = BurstThenContinuousWorkload(
        total_tasks=REQUESTS_PER_CORE * platform.total_cores,
        burst_size=platform.total_cores,
        continuous_rate=1.0,
        flop_per_task=TASK_FLOP,
    )
    simulation.submit_workload(workload.generate())
    return simulation.run()


def _sweep():
    return {preference: _run_with_preference(preference) for preference in PREFERENCES}


def test_bench_ablation_user_preference_sweep(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    energies = {p: r.metrics.total_energy for p, r in results.items()}
    taurus_share = {
        p: r.metrics.tasks_per_cluster.get("taurus", 0)
        / max(sum(r.metrics.tasks_per_cluster.values()), 1)
        for p, r in results.items()
    }

    # Energy-seeking users push work onto the energy-efficient cluster.
    assert taurus_share[0.9] > taurus_share[-0.9]
    # The energy-seeking end of the sweep consumes no more than the
    # performance-seeking end.
    assert energies[0.9] <= energies[-0.9] * 1.02

    print()
    print("Ablation A2: user preference sweep (Equation 6)")
    print(f"{'P':>6}  {'makespan (s)':>14}  {'energy (J)':>14}  {'taurus share':>13}")
    for preference in PREFERENCES:
        metrics = results[preference].metrics
        print(
            f"{preference:>6.1f}  {metrics.makespan:>14.0f}  "
            f"{metrics.total_energy:>14.0f}  {taurus_share[preference]:>13.2f}"
        )
