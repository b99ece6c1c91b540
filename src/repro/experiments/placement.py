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

from repro.experiments.presets import (
    PLACEMENT_WORKLOAD_PRESETS,
    PLATFORM_PRESETS,
    placement_workload,
)
from repro.lab.compat import preset_value, reject_unused, resolve_parameters
from repro.lab.components import PlatformSource, PolicySource, WorkloadSource
from repro.lab.session import LabSession
from repro.runner.spec import ScenarioSpec


def placement_components(
    spec: ScenarioSpec, **integer_parameters: int | None
) -> tuple[dict[str, object], PlatformSource, WorkloadSource]:
    """The parameters, platform and workload of a spec on the placement workload.

    The Table I platform is sized by the platform preset and the burst +
    continuous pattern by the workload preset, both under the spec's
    overrides; ``workload="trace"`` replays the spec's trace instead.
    ``integer_parameters`` declares a family's further integer
    overrides with their defaults (the queue family's ``queue_cores``).
    """
    params = resolve_parameters(
        spec,
        {
            "nodes_per_cluster": preset_value(PLATFORM_PRESETS, spec.platform, "platform"),
            "burst_size": None,
            **integer_parameters,
        },
        PLACEMENT_WORKLOAD_PRESETS,
        integers=("nodes_per_cluster", "requests_per_core", "burst_size", *integer_parameters),
    )
    synthetic = placement_workload(
        requests_per_core=params["requests_per_core"],
        task_flop=params["task_flop"],
        continuous_rate=params["continuous_rate"],
        burst_size=params["burst_size"],
    )
    if spec.trace is not None:
        workload = WorkloadSource.from_trace(spec.trace)
    else:
        workload = WorkloadSource.from_generator(synthetic)
    return params, PlatformSource.table1(params["nodes_per_cluster"]), workload


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
    params, platform, workload = placement_components(spec)
    # Nothing a spec's result reads needs the per-task trace events, and a
    # million-task replay would allocate four of them per task.
    return LabSession(
        platform=platform,
        workload=workload,
        policy=PolicySource(
            spec.policy,
            seed=spec.seed if spec.policy == "RANDOM" else None,
            preference=spec.preference if spec.policy == "GREEN_SCORE" else None,
            family="plugin",
        ),
        timeline=spec.timeline,
        horizon=spec.horizon,
        trace_level="off",
        sample_period=params["sample_period"],
    )
