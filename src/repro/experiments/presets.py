"""Experimental presets: Tables I and III and calibrated workload parameters.

The placement experiment of Section IV-A uses:

* the platform of Table I (4 Orion + 4 Taurus + 4 Sagittaire SeD nodes);
* 10 client requests per available core;
* a burst of ``r`` simultaneous requests followed by a continuous phase at
  two requests per second;
* one task = a CPU-bound problem of 1e8 successive additions.

The paper's task is an interpreted addition loop; its wall-clock duration
on the testbed is not reported directly, and the published makespans
(≈ 2,300 s) cannot simultaneously hold with a strictly 2 req/s arrival
process unless the platform is saturated.  Our node model expresses
performance in FLOP/s, so the preset calibrates the per-task cost
(``CALIBRATED_TASK_FLOP``) such that the offered load sits just below the
platform capacity (utilisation ≈ 0.85): high enough that placement
decisions matter and queues form on the favoured clusters, low enough that
no policy collapses — which is the regime the paper's Table II and
Figures 2–4 describe.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.infrastructure.platform import (
    orion_spec,
    sagittaire_spec,
    simulated_cluster_specs,
    taurus_spec,
)
from repro.util.validation import ensure_positive
from repro.workload.generator import BurstThenContinuousWorkload

#: Per-task cost calibrated so one task lasts ≈ 22 s on a Taurus core: the
#: favoured cluster can then absorb the 2 req/s continuous phase on its own,
#: which is what produces the strong per-cluster concentration of
#: Figures 2–3 while keeping every policy's makespan bounded.
CALIBRATED_TASK_FLOP = 5.0e10

#: The paper's request volume: ten requests per available core.
REQUESTS_PER_CORE = 10

#: The continuous-phase arrival rate (requests per second).
CONTINUOUS_RATE = 2.0

#: Platform presets: nodes per cluster on the Table I platform.
PLATFORM_PRESETS: Mapping[str, int] = {
    "paper": 4,  # the full Table I platform (12 SeD nodes)
    "half": 2,
    "quick": 1,  # one node per cluster — smoke-test scale
    "tiny": 1,
}

#: Workload presets for the placement experiment, by scale.
PLACEMENT_WORKLOAD_PRESETS: Mapping[str, Mapping[str, float]] = {
    "paper": {
        "requests_per_core": REQUESTS_PER_CORE,
        "task_flop": CALIBRATED_TASK_FLOP,
        "continuous_rate": CONTINUOUS_RATE,
        "sample_period": 1.0,
    },
    "quick": {
        "requests_per_core": 4,
        "task_flop": 2.0e10,
        "continuous_rate": 1.0,
        "sample_period": 5.0,
    },
    "tiny": {
        "requests_per_core": 2,
        "task_flop": 1.0e10,
        "continuous_rate": 1.0,
        "sample_period": 10.0,
    },
}


def placement_workload(
    *,
    requests_per_core: int,
    task_flop: float,
    continuous_rate: float,
    burst_size: int | None,
) -> Callable[[int], BurstThenContinuousWorkload]:
    """The placement experiment's workload, as a factory of the platform's core count.

    ``requests_per_core`` requests per core, a burst of ``burst_size``
    (one request per core when ``None``, at most every request) and
    then ``continuous_rate`` requests per second.  The values are
    checked here, before any run.

    >>> factory = placement_workload(
    ...     requests_per_core=2, task_flop=1e9, continuous_rate=1.0, burst_size=None)
    >>> workload = factory(3)
    >>> workload.total_tasks, workload.burst_size
    (6, 3)
    """
    if requests_per_core < 1:
        raise ValueError(f"requests_per_core must be >= 1, got {requests_per_core}")
    ensure_positive(task_flop, "task_flop")
    ensure_positive(continuous_rate, "continuous_rate")
    if burst_size is not None and burst_size < 0:
        raise ValueError(f"burst_size must be >= 0, got {burst_size}")

    def sized(total_cores: int) -> BurstThenContinuousWorkload:
        total = requests_per_core * total_cores
        burst = total_cores if burst_size is None else burst_size
        return BurstThenContinuousWorkload(
            total_tasks=total,
            burst_size=min(burst, total),
            continuous_rate=continuous_rate,
            flop_per_task=task_flop,
        )

    return sized


def paper_infrastructure_table() -> Sequence[Mapping[str, object]]:
    """Table I — the experimental infrastructure, one row per cluster role.

    The Master Agent and client rows are included for completeness even
    though they do not execute tasks in the reproduction.
    """
    orion = orion_spec()
    taurus = taurus_spec()
    sagittaire = sagittaire_spec()
    return (
        {
            "cluster": "Orion",
            "nodes": 4,
            "cpu": "2x6cores @2.30Ghz",
            "memory_gb": orion.memory_gb,
            "role": "SED",
            "cores_per_node": orion.cores,
        },
        {
            "cluster": "Sagittaire",
            "nodes": 4,
            "cpu": "2x1core @2.40Ghz",
            "memory_gb": sagittaire.memory_gb,
            "role": "SED",
            "cores_per_node": sagittaire.cores,
        },
        {
            "cluster": "Taurus",
            "nodes": 4,
            "cpu": "2x6cores @2.30Ghz",
            "memory_gb": taurus.memory_gb,
            "role": "SED",
            "cores_per_node": taurus.cores,
        },
        {
            "cluster": "Sagittaire",
            "nodes": 1,
            "cpu": "2x1core @2.40Ghz",
            "memory_gb": sagittaire.memory_gb,
            "role": "MA",
            "cores_per_node": sagittaire.cores,
        },
        {
            "cluster": "Sagittaire",
            "nodes": 1,
            "cpu": "2x1core @2.40Ghz",
            "memory_gb": sagittaire.memory_gb,
            "role": "Client",
            "cores_per_node": sagittaire.cores,
        },
    )


def simulated_clusters_table() -> Sequence[Mapping[str, float]]:
    """Table III — idle and peak consumption of the simulated clusters."""
    specs = simulated_cluster_specs()
    return tuple(
        {
            "cluster": name.capitalize().replace("Sim", "Sim"),
            "idle_consumption": spec.idle_power,
            "peak_consumption": spec.peak_power,
        }
        for name, spec in specs.items()
    )
