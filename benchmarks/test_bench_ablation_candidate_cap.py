"""Ablation A3 — Algorithm 1's power cap vs energy and makespan.

Algorithm 1 selects candidate servers greedily (best GreenPerf first)
until their accumulated power reaches ``Preference_provider x P_Total``.
This bench sweeps the provider preference and reports the
candidates/energy/makespan trade-off: smaller caps save energy (fewer,
more efficient nodes stay in use) at the cost of longer makespans.
"""

from __future__ import annotations

from repro.core.candidate_selection import select_candidate_servers
from repro.core.greenperf import GreenPerfRanking, PowerEstimationMode
from repro.core.policies import GreenPerfPolicy
from repro.infrastructure.platform import grid5000_placement_platform
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.hierarchy import build_hierarchy
from repro.middleware.requests import ServiceRequest
from repro.simulation.task import Task
from repro.workload.generator import BurstThenContinuousWorkload

#: Table I platform size, requests per core and task cost of the sweep.
NODES_PER_CLUSTER = 2
REQUESTS_PER_CORE = 3
TASK_FLOP = 2.0e10
SAMPLE_PERIOD = 5.0

PROVIDER_PREFERENCES = (0.2, 0.4, 0.7, 1.0)


def _run_with_cap(provider_preference: float):
    platform = grid5000_placement_platform(nodes_per_cluster=NODES_PER_CLUSTER)
    master, seds = build_hierarchy(platform, scheduler=GreenPerfPolicy())

    # Build the candidate set once from the static estimations (Algorithm 1).
    probe = ServiceRequest.from_task(Task())
    vectors = [sed.estimate(probe) for sed in seds.values()]
    ranking = GreenPerfRanking(vectors, mode=PowerEstimationMode.STATIC)
    selected = select_candidate_servers(ranking, provider_preference)
    allowed = {entry.server for entry in selected}
    master.set_candidate_filter(allowed)

    simulation = MiddlewareSimulation(
        platform, master, seds, sample_period=SAMPLE_PERIOD,
        policy_name=f"GREENPERF(cap={provider_preference})",
    )
    workload = BurstThenContinuousWorkload(
        total_tasks=REQUESTS_PER_CORE * platform.total_cores,
        burst_size=platform.total_cores,
        continuous_rate=1.0,
        flop_per_task=TASK_FLOP,
    )
    simulation.submit_workload(workload.generate())
    return len(allowed), simulation.run()


def _sweep():
    return {pref: _run_with_cap(pref) for pref in PROVIDER_PREFERENCES}


def test_bench_ablation_candidate_power_cap(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    candidate_counts = {pref: count for pref, (count, _) in results.items()}
    makespans = {pref: result.metrics.makespan for pref, (_, result) in results.items()}

    # Larger budgets allow more candidate servers (monotone in the cap).
    caps = sorted(candidate_counts)
    for low, high in zip(caps, caps[1:]):
        assert candidate_counts[low] <= candidate_counts[high]
    # Everything still completes, and the tight cap pays for its savings
    # with a makespan at least as long as the full platform's.
    assert all(result.metrics.task_count > 0 for _, result in results.values())
    assert makespans[0.2] >= makespans[1.0]

    print()
    print("Ablation A3: Algorithm 1 power cap sweep")
    print(f"{'preference':>11}  {'candidates':>10}  {'makespan (s)':>13}  {'energy (J)':>12}")
    for pref in PROVIDER_PREFERENCES:
        count, result = results[pref]
        print(
            f"{pref:>11.1f}  {count:>10d}  {result.metrics.makespan:>13.0f}  "
            f"{result.metrics.total_energy:>12.0f}"
        )
