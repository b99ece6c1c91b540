"""The GreenPerf heterogeneity study (Section IV-B, Figures 6 and 7).

The paper evaluates the relevance of the GreenPerf ratio in environments
of low and high heterogeneity through a dedicated simulation:

* low heterogeneity — two server types with similar specifications
  (the Orion and Taurus clusters of Table I);
* high heterogeneity — four server types, adding the simulated Sim1 and
  Sim2 clusters of Table III;
* "Each task is computed with the maximal performance and power of the
  servers.  During the simulation, each server is limited to the
  computation of one task";
* two clients submit requests.

We reproduce this with a small closed-loop simulator: each client keeps
one request in flight; at every submission the policy under test ranks the
*currently free* servers through their (static) estimation vectors and the
task executes on the elected server at its peak performance and peak
power.  The figure coordinates are the averages over all tasks of the
energy consumed and the completion time; the RANDOM policy is run over
several seeds and contributes an area (the shaded region of the figures).

Expected shape: with low heterogeneity the POWER (G) and GreenPerf (GP)
points coincide and sit apart from PERFORMANCE (P) — the ratio adds
nothing; with higher heterogeneity GreenPerf clearly improves the
energy/performance trade-off over both single-criterion policies, which is
the paper's conclusion that "the effectiveness of this metric strongly
relies on the heterogeneity of servers".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.lab.components import PlatformSource, PolicySource, WorkloadSource
from repro.lab.session import LabSession
from repro.runner.executor import run_scenarios
from repro.runner.spec import ScenarioSpec, SweepSpec
from repro.runner.store import ScenarioResult

#: Policies plotted as single points in Figures 6 and 7.
POINT_POLICIES = ("POWER", "GREENPERF", "PERFORMANCE")

#: Default per-task cost of the heterogeneity study.
DEFAULT_TASK_FLOP = 5.0e10

#: Workload presets of the heterogeneity study, by scale.
HETEROGENEITY_WORKLOAD_PRESETS: Mapping[str, Mapping[str, float]] = {
    "paper": {
        "servers_per_type": 2,
        "tasks_per_client": 50,
        "clients": 2,
        "task_flop": DEFAULT_TASK_FLOP,
    },
    "quick": {
        "servers_per_type": 2,
        "tasks_per_client": 20,
        "clients": 2,
        "task_flop": DEFAULT_TASK_FLOP,
    },
    "tiny": {
        "servers_per_type": 1,
        "tasks_per_client": 5,
        "clients": 2,
        "task_flop": 2.0e10,
    },
}


def heterogeneity_params_for(
    workload: str, *, overrides: Mapping[str, object] | None = None
) -> dict[str, object]:
    """Resolve a workload preset name (plus overrides) to run parameters.

    The special preset ``workload="trace"`` (an open-loop replay through
    the single-task servers) starts from the paper-scale server fleet;
    the closed-loop client parameters it carries are ignored by the
    replay.
    """
    from repro.experiments.presets import preset_value

    if workload == "trace":
        params: dict[str, object] = dict(HETEROGENEITY_WORKLOAD_PRESETS["paper"])
    else:
        params = dict(
            preset_value(
                HETEROGENEITY_WORKLOAD_PRESETS, workload, "heterogeneity workload"
            )
        )
    if overrides:
        unknown = sorted(set(overrides) - set(params))
        if unknown:
            raise ValueError(
                f"unknown heterogeneity parameter(s) {unknown}; "
                f"valid overrides: {sorted(params)}"
            )
        params.update(overrides)
    params["servers_per_type"] = int(params["servers_per_type"])
    params["tasks_per_client"] = int(params["tasks_per_client"])
    params["clients"] = int(params["clients"])
    return params


@dataclass(frozen=True)
class MetricPoint:
    """One point of the metric-comparison plot: a policy's averages."""

    policy: str
    mean_energy_per_task: float
    mean_completion_time: float
    total_energy: float
    makespan: float
    tasks_per_type: Mapping[str, int]


@dataclass(frozen=True)
class RandomArea:
    """The spread of the RANDOM policy over several seeds (the shaded area)."""

    energy_min: float
    energy_max: float
    time_min: float
    time_max: float

    def contains(self, energy: float, time: float, *, tolerance: float = 0.0) -> bool:
        """Whether a point falls inside the (tolerance-expanded) area."""
        return (
            self.energy_min - tolerance <= energy <= self.energy_max + tolerance
            and self.time_min - tolerance <= time <= self.time_max + tolerance
        )


@dataclass(frozen=True)
class HeterogeneityResult:
    """Full result of one heterogeneity scenario."""

    kinds: int
    points: Mapping[str, MetricPoint]
    random_area: RandomArea

    def point(self, policy: str) -> MetricPoint:
        """The metric point of one policy."""
        return self.points[policy.upper()]

    def tradeoff_score(self, policy: str) -> float:
        """Normalised energy × time product of one policy (lower is better).

        Energy is normalised by the best (lowest) energy among the three
        plotted policies and time by the best time, so a policy that
        matches the best energy *and* the best time scores 1.0.  This is
        the quantitative rendering of the figures' "better trade-off"
        reading.
        """
        energies = [p.mean_energy_per_task for p in self.points.values()]
        times = [p.mean_completion_time for p in self.points.values()]
        best_energy = min(energies)
        best_time = min(times)
        target = self.point(policy)
        return (target.mean_energy_per_task / best_energy) * (
            target.mean_completion_time / best_time
        )

    def greenperf_improves_tradeoff(self) -> bool:
        """Whether GreenPerf achieves the best trade-off score of the three."""
        scores = {name: self.tradeoff_score(name) for name in self.points}
        return scores["GREENPERF"] <= min(scores.values()) + 1e-9


def heterogeneity_session(
    policy_name: str,
    kinds: int,
    *,
    servers_per_type: int,
    tasks_per_client: int = 50,
    clients: int = 2,
    task_flop: float = DEFAULT_TASK_FLOP,
    seed: int = 0,
    trace: str | None = None,
    timeline=None,
) -> LabSession:
    """The heterogeneity study as a composable lab session.

    The default workload is the paper's closed loop (``clients`` clients
    each keeping one request in flight); ``trace`` replays a recorded
    task stream through the single-task servers instead, and
    ``timeline`` turns node-failure events into server-unavailability
    windows — axes the pre-lab study could not express.
    """
    if trace is not None:
        workload = WorkloadSource.from_trace(trace)
    else:
        workload = WorkloadSource.point_load(
            clients=clients, tasks_per_client=tasks_per_client, task_flop=task_flop
        )
    return LabSession(
        platform=PlatformSource.server_types(kinds, servers_per_type=servers_per_type),
        workload=workload,
        policy=PolicySource(
            policy_name,
            seed=seed if policy_name.upper() == "RANDOM" else None,
            # Per-request semantics on the point study: queue-family names
            # run as their placement adapter, never the batch backend.
            family="plugin",
        ),
        timeline=timeline,
    )


def heterogeneity_sweeps(
    kinds: int,
    *,
    servers_per_type: int = 2,
    tasks_per_client: int = 50,
    clients: int = 2,
    task_flop: float = DEFAULT_TASK_FLOP,
    random_seeds: Sequence[int] = (0, 1, 2, 3, 4),
) -> tuple[SweepSpec, SweepSpec]:
    """The scenario grid of one heterogeneity study, as two sweeps.

    The first sweep covers the deterministic point policies (Figures 6–7
    plot them as single markers); the second spans the RANDOM policy over
    ``random_seeds`` (the shaded area).  Explicit parameters travel as spec
    overrides so arbitrary configurations remain cacheable by content hash.
    """
    base = ScenarioSpec(
        experiment="heterogeneity",
        platform=f"types{kinds}",
        workload="paper",
        overrides={
            "servers_per_type": servers_per_type,
            "tasks_per_client": tasks_per_client,
            "clients": clients,
            "task_flop": task_flop,
        },
    )
    points = SweepSpec(base, {"policy": POINT_POLICIES})
    randoms = SweepSpec(base.replace(policy="RANDOM"), {"seed": tuple(random_seeds)})
    return points, randoms


def _point_from_result(result: ScenarioResult) -> MetricPoint:
    """Rebuild the figure coordinates of one scenario result."""
    return MetricPoint(
        policy=result.spec.policy,
        mean_energy_per_task=result.metrics["mean_energy_per_task"],
        mean_completion_time=result.metrics["mean_completion_time"],
        total_energy=result.metrics["total_energy"],
        makespan=result.metrics["makespan"],
        tasks_per_type={
            kind: int(count)
            for kind, count in result.detail.get("tasks_per_type", {}).items()
        },
    )


def run_heterogeneity_experiment(
    *,
    kinds: int = 2,
    servers_per_type: int = 2,
    tasks_per_client: int = 50,
    clients: int = 2,
    task_flop: float = DEFAULT_TASK_FLOP,
    random_seeds: Sequence[int] = (0, 1, 2, 3, 4),
    jobs: int = 1,
    store=None,
) -> HeterogeneityResult:
    """Run one heterogeneity scenario (Figure 6 with ``kinds=2``, Figure 7 with 4).

    Returns the POWER / GreenPerf / PERFORMANCE metric points and the
    RANDOM area computed over ``random_seeds``.  The grid executes through
    the sweep runner: ``jobs`` fans the scenarios out over worker
    processes and ``store`` (a store directory path or
    :class:`~repro.runner.store.ShardedResultStore`) makes re-runs
    incremental.
    """
    point_sweep, random_sweep = heterogeneity_sweeps(
        kinds,
        servers_per_type=servers_per_type,
        tasks_per_client=tasks_per_client,
        clients=clients,
        task_flop=task_flop,
        random_seeds=random_seeds,
    )
    point_specs = point_sweep.expand()
    random_specs = random_sweep.expand()
    outcome = run_scenarios(point_specs + random_specs, jobs=jobs, store=store)

    points: dict[str, MetricPoint] = {}
    for result in outcome.results[: len(point_specs)]:
        points[result.spec.policy] = _point_from_result(result)

    random_points = [
        _point_from_result(result) for result in outcome.results[len(point_specs):]
    ]
    energies = [p.mean_energy_per_task for p in random_points]
    times = [p.mean_completion_time for p in random_points]
    area = RandomArea(
        energy_min=min(energies),
        energy_max=max(energies),
        time_min=min(times),
        time_max=max(times),
    )
    return HeterogeneityResult(kinds=kinds, points=points, random_area=area)
