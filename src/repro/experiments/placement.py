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
node-power segment is recorded, from which the figures are derived.  The
comparison is :func:`repro.runner.grids.table2_grid`; each of its specs
resolves here into a lab session.
"""

from __future__ import annotations

from repro.experiments.presets import placement_config_for
from repro.lab.compat import reject_unused
from repro.lab.components import PlatformSource, PolicySource, WorkloadSource
from repro.lab.session import LabSession
from repro.runner.spec import ScenarioSpec


def placement_session(spec: ScenarioSpec) -> LabSession:
    """Resolve a placement spec into a lab session.

    The Table I platform and the burst + continuous pattern come from the
    spec's presets (or a replayed trace with ``workload="trace"``); its
    ``timeline`` injects fault events and ``horizon`` caps the observation
    window.  Queue-family policy names (EASY, …) run as their per-request
    placement adapter here; their batch semantics are the queue family's.

    >>> placement_session(ScenarioSpec(platform="quick", workload="quick")).backend
    'middleware'
    """
    if spec.policy != "GREEN_SCORE":
        reject_unused(spec, preference=0.0)
    if spec.policy != "RANDOM":
        reject_unused(spec, seed=0)
    config = placement_config_for(
        platform=spec.platform,
        workload=spec.workload,
        trace=spec.trace,
        overrides=dict(spec.overrides),
    )
    # Nothing a spec's result reads needs the per-task trace events, and a
    # million-task replay would allocate four of them per task.
    return LabSession(
        platform=PlatformSource.table1(config.nodes_per_cluster),
        workload=WorkloadSource.from_generator(config.build_workload),
        policy=PolicySource(
            spec.policy,
            seed=spec.seed if spec.policy == "RANDOM" else None,
            preference=spec.preference if spec.policy == "GREEN_SCORE" else None,
            family="plugin",
        ),
        timeline=spec.timeline,
        horizon=spec.horizon,
        trace_level="off",
        sample_period=config.sample_period,
    )
