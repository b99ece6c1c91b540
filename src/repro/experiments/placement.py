"""The workload-placement experiment (Section IV-A).

Reproduces:

* Figure 2 — task distribution per node under the POWER policy;
* Figure 3 — task distribution per node under the PERFORMANCE policy;
* Figure 4 — task distribution per node under the RANDOM policy;
* Figure 5 — energy consumption per cluster for each policy;
* Table II — makespan and energy per policy.

A single client submits ``10 × cores`` CPU-bound requests (a burst
followed by a 2 req/s continuous phase) to a Master Agent whose plug-in
scheduler implements the policy under test; every completed task and every
node-power segment is recorded, from which the figures are derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.experiments.presets import PlacementExperimentConfig
from repro.lab.components import PlatformSource, PolicySource, WorkloadSource
from repro.lab.session import LabSession
from repro.middleware.driver import SimulationResult
from repro.simulation.metrics import ExperimentMetrics

#: The three policies compared in the paper's first experiment.
TABLE2_POLICIES = ("RANDOM", "POWER", "PERFORMANCE")


def placement_session(
    policy: str,
    config: PlacementExperimentConfig | None = None,
    *,
    trace_level: str = "full",
    timeline=None,
    horizon: float | None = None,
    **policy_kwargs,
) -> LabSession:
    """The placement experiment as a composable lab session.

    The platform/workload/policy components come from ``config`` (the
    Table I platform and the burst + continuous pattern, or a replayed
    trace when ``config.trace_path`` is set); ``timeline`` (an
    :class:`~repro.scenario.events.EventTimeline` or a file path) injects
    fault events into the run and ``horizon`` caps the observation
    window — two axes the pre-lab placement path could not express.
    """
    config = config or PlacementExperimentConfig()
    if policy.strip().upper() == "RANDOM" and "seed" not in policy_kwargs:
        policy_kwargs["seed"] = config.random_seed
    # ``family="plugin"`` pins per-request placement semantics: queue-family
    # names (EASY, …) run as their QueuePlacementAdapter on the middleware
    # stack here; their batch semantics live in experiments.queue_family.
    policy_source = PolicySource(
        policy,
        seed=policy_kwargs.pop("seed", None),
        preference=policy_kwargs.pop("default_preference", None),
        options=tuple(policy_kwargs.items()),
        family="plugin",
    )
    return LabSession(
        platform=PlatformSource.table1(config.nodes_per_cluster),
        workload=WorkloadSource.from_generator(config.build_workload),
        policy=policy_source,
        timeline=timeline,
        horizon=horizon,
        trace_level=trace_level,
        sample_period=config.sample_period,
    )


def run_placement_experiment(
    policy: str,
    config: PlacementExperimentConfig | None = None,
    *,
    trace_level: str = "full",
    **policy_kwargs,
) -> SimulationResult:
    """Run the placement workload under one policy and return the full result.

    ``policy`` is one of ``"POWER"``, ``"PERFORMANCE"``, ``"RANDOM"``,
    ``"GREENPERF"`` or ``"GREEN_SCORE"`` (case-insensitive);
    ``policy_kwargs`` are forwarded to the policy constructor (e.g.
    ``seed=`` for RANDOM).  ``trace_level`` forwards to
    :class:`~repro.middleware.driver.MiddlewareSimulation` — sweep workers
    run with ``trace_level="off"`` since nothing reads per-task trace
    events there.

    Assembly happens through :func:`placement_session` (the
    :mod:`repro.lab` path); richer compositions — fault timelines,
    capped horizons — are available on the session directly.
    """
    session = placement_session(
        policy, config, trace_level=trace_level, **policy_kwargs
    )
    return session.run().simulation


@dataclass(frozen=True)
class PlacementComparison:
    """Results of running the same workload under several policies."""

    results: Mapping[str, SimulationResult]

    @property
    def policies(self) -> tuple[str, ...]:
        """Policy names, in run order."""
        return tuple(self.results)

    def metrics(self, policy: str) -> ExperimentMetrics:
        """Summary metrics of one policy run."""
        return self.results[policy].metrics

    # -- Table II -------------------------------------------------------------------
    def table2_rows(self) -> Sequence[Mapping[str, float]]:
        """Makespan and energy per policy (the rows of Table II)."""
        return tuple(
            {
                "policy": policy,
                "makespan_s": result.metrics.makespan,
                "energy_j": result.metrics.total_energy,
            }
            for policy, result in self.results.items()
        )

    def energy_saving(self, reference: str, against: str) -> float:
        """Fractional energy saving of ``reference`` compared to ``against``.

        Table II reports POWER saving 25 % against RANDOM and 19 % against
        PERFORMANCE; this helper computes the equivalent figures for the
        reproduction.
        """
        ref = self.metrics(reference).total_energy
        other = self.metrics(against).total_energy
        if other == 0:
            raise ZeroDivisionError(f"policy {against!r} reports zero energy")
        return 1.0 - ref / other

    def makespan_loss(self, reference: str, against: str) -> float:
        """Fractional makespan increase of ``reference`` compared to ``against``."""
        ref = self.metrics(reference).makespan
        other = self.metrics(against).makespan
        if other == 0:
            raise ZeroDivisionError(f"policy {against!r} reports zero makespan")
        return ref / other - 1.0

    # -- Figures 2-4 ------------------------------------------------------------------
    def task_distribution(self, policy: str) -> Mapping[str, int]:
        """Completed tasks per node for one policy (Figures 2–4)."""
        return dict(self.metrics(policy).tasks_per_node)

    def cluster_task_share(self, policy: str) -> Mapping[str, float]:
        """Fraction of tasks executed by each cluster for one policy."""
        per_cluster = self.metrics(policy).tasks_per_cluster
        total = sum(per_cluster.values())
        if total == 0:
            return {cluster: 0.0 for cluster in per_cluster}
        return {cluster: count / total for cluster, count in per_cluster.items()}

    # -- Figure 5 -----------------------------------------------------------------------
    def energy_per_cluster(self) -> Mapping[str, Mapping[str, float]]:
        """Energy per cluster for every policy (Figure 5)."""
        return {
            policy: dict(result.metrics.energy_per_cluster)
            for policy, result in self.results.items()
        }


def run_policy_comparison(
    policies: Sequence[str] = TABLE2_POLICIES,
    config: PlacementExperimentConfig | None = None,
) -> PlacementComparison:
    """Run the placement workload under each policy and collect the results.

    Each policy sees the same platform layout and the same request stream
    (workload generation is deterministic), which is what makes Table II a
    fair comparison.
    """
    config = config or PlacementExperimentConfig()
    results: dict[str, SimulationResult] = {}
    for policy in policies:
        results[policy.upper()] = run_placement_experiment(policy, config)
    return PlacementComparison(results=results)
