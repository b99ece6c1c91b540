"""The adaptive resource-provisioning experiment (Section IV-C, Figure 9).

Scenario (times relative to the experiment start, total 260 minutes):

* the electricity cost starts at 1.0 (regular time) and the provider
  preference favours energy-efficient nodes;
* **Event 1** (scheduled): the cost drops to 0.8 at t + 60 min; the Master
  Agent learns about it at t + 40 min and ramps the candidate pool up
  progressively so that 8 candidates are available when the cheaper tariff
  starts;
* **Event 2** (scheduled): the cost drops to 0.5, allowing every node to be
  used; nodes are added over the following 20 minutes;
* **Event 3** (unexpected): an instant rise of temperature above the 25 °C
  threshold at t + 160 min; the predefined behaviour reduces the candidates
  to 2, in steps, letting running tasks complete;
* **Event 4** (unexpected): the temperature returns in range at t + 240 min
  and the pool is re-provisioned every 10 minutes towards 12.

A client aware of the number of available nodes submits a continuous flow
of requests "intending to reach the capacity of the infrastructure", so
the measured power consumption tracks the candidate count with the
documented delays.

The four events ship as the bundled declarative timeline
``repro/scenario/data/figure9.toml`` (see ``docs/SCENARIOS.md``); any
other :class:`~repro.scenario.events.EventTimeline` — including node
crash/recovery storms and workload bursts — can be substituted through
a spec's ``timeline`` file (``repro sweep --timeline``).  The
golden suite (``tests/test_goldens.py``) pins the bundled timeline to
the exact bits of the historical inline-event implementation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping

from repro.experiments.presets import PLATFORM_PRESETS, preset_value
from repro.lab.compat import reject_unused
from repro.lab.components import (
    PlatformSource,
    PolicySource,
    ProvisioningSource,
    WorkloadSource,
)
from repro.lab.session import LabSession
from repro.runner.spec import ScenarioSpec
from repro.scenario.events import EventTimeline
from repro.scenario.io import bundled_timeline, load_timeline
from repro.util.validation import ensure_finite, ensure_integer, ensure_positive

_MINUTE = 60.0

#: Workload presets of the adaptive experiment, by scale.  Values override
#: the :class:`AdaptiveExperimentConfig` defaults (the paper's scenario).
ADAPTIVE_WORKLOAD_PRESETS: Mapping[str, Mapping[str, float]] = {
    "paper": {},
    "quick": {"duration": 60 * _MINUTE},
    "tiny": {
        "duration": 30 * _MINUTE,
        "check_period": 300.0,
        "lookahead": 600.0,
        "client_tick": 30.0,
        "task_flop": 2.0e11,
    },
}


def default_adaptive_timeline() -> EventTimeline:
    """The Figure 9 scenario as a declarative timeline.

    Loaded from the bundled ``repro/scenario/data/figure9.toml``, the
    canonical source of the quartet:

    >>> for event in default_adaptive_timeline():
    ...     print(f"{event.kind:<17} t + {event.time / 60:g} min")
    tariff_change     t + 60 min
    tariff_change     t + 100 min
    thermal_excursion t + 160 min
    thermal_excursion t + 240 min
    """
    return bundled_timeline("figure9")


@dataclass(frozen=True)
class AdaptiveExperimentConfig:
    """Parameters of the adaptive-provisioning experiment.

    The defaults replay the paper's 260-minute scenario; tests shrink the
    duration and task size to keep runtimes low.

    The scenario's events come from ``timeline``, the bundled Figure 9
    quartet by default.  A timeline may carry node failures/recoveries
    and workload bursts in addition to the tariff/thermal events — see
    ``docs/SCENARIOS.md``.

    When ``trace_path`` is set, the closed-loop capacity client is
    replaced by an open-loop replay of that trace (CSV or raw SWF)
    through the provisioned platform — a real recorded week under
    adaptive provisioning, optionally under a crash storm.
    """

    duration: float = 260 * _MINUTE
    nodes_per_cluster: int = 4
    check_period: float = 600.0
    lookahead: float = 1200.0
    ramp_up_step: int = 2
    ramp_down_step: int = 4
    task_flop: float = 6.9e11
    client_tick: float = 60.0
    sample_period: float = 5.0
    timeline: EventTimeline = field(default_factory=default_adaptive_timeline)
    manage_power: bool = True
    base_temperature: float = 21.0
    requeue_on_failure: bool = True
    trace_path: str | None = None

    def __post_init__(self) -> None:
        ensure_positive(self.duration, "duration")
        ensure_positive(self.check_period, "check_period")
        ensure_positive(self.task_flop, "task_flop")
        ensure_positive(self.client_tick, "client_tick")
        ensure_positive(self.sample_period, "sample_period")
        ensure_finite(self.base_temperature, "base_temperature")
        if self.nodes_per_cluster < 1:
            raise ValueError(
                f"nodes_per_cluster must be >= 1, got {self.nodes_per_cluster}"
            )


def adaptive_config_for(
    platform: str = "paper",
    workload: str = "paper",
    *,
    horizon: float | None = None,
    timeline: EventTimeline | None = None,
    trace: str | None = None,
    overrides: Mapping[str, object] | None = None,
) -> AdaptiveExperimentConfig:
    """Build an :class:`AdaptiveExperimentConfig` from preset names.

    ``platform`` selects the node count
    (:data:`repro.experiments.presets.PLATFORM_PRESETS`), ``workload`` the
    scenario scale (:data:`ADAPTIVE_WORKLOAD_PRESETS`), ``horizon``
    overrides the simulated duration, ``timeline`` replaces the default
    Figure 9 event timeline, and ``overrides`` replaces individual config
    fields — the resolution path of adaptive
    :class:`~repro.runner.spec.ScenarioSpec` values.

    The special preset ``workload="trace"`` replays the trace file named
    by ``trace`` through the provisioned platform instead of running the
    closed-loop capacity client (and is the only workload that accepts
    ``trace``).
    """
    if (trace is not None) != (workload == "trace"):
        raise ValueError(
            "workload='trace' and trace=<path> must be given together; "
            f"got workload={workload!r}, trace={trace!r}"
        )
    if workload == "trace":
        params: dict[str, object] = {"trace_path": str(trace)}
    else:
        params = dict(
            preset_value(ADAPTIVE_WORKLOAD_PRESETS, workload, "adaptive workload")
        )
    params["nodes_per_cluster"] = preset_value(PLATFORM_PRESETS, platform, "platform")
    if overrides:
        params.update(overrides)
    for key in ("nodes_per_cluster", "ramp_up_step", "ramp_down_step"):
        if key in params:
            ensure_integer(params[key], key)
    if horizon is not None:
        params["duration"] = horizon
    if timeline is not None:
        params["timeline"] = timeline
    try:
        return AdaptiveExperimentConfig(**params)
    except TypeError:
        valid = sorted(f.name for f in dataclasses.fields(AdaptiveExperimentConfig))
        unknown = sorted(set(params) - set(valid))
        raise ValueError(
            f"unknown adaptive parameter(s) {unknown}; valid overrides: {valid}"
        ) from None


def adaptive_session(spec: ScenarioSpec) -> LabSession:
    """Resolve an adaptive spec into a lab session (Figure 9).

    Platform size, provisioning cadence and workload scale come from the
    spec's presets and overrides; ``horizon`` replaces the simulated
    duration and ``timeline`` the bundled Figure 9 events.  The workload
    is the closed-loop capacity client unless ``workload="trace"``
    replays a recorded trace through the provisioned platform instead.

    >>> session = adaptive_session(
    ...     ScenarioSpec(experiment="adaptive", workload="quick", policy="GREENPERF"))
    >>> session.horizon, len(session.timeline)
    (3600.0, 4)
    """
    # The Figure 9 scenario always schedules with GreenPerf and has no
    # stochastic component (generated fault timelines are seeded at
    # generation time, so a timeline file is deterministic content too).
    reject_unused(spec, policy="GREENPERF", preference=0.0, seed=0)
    if spec.trace is not None and spec.horizon is None:
        raise ValueError(
            "adaptive trace replay needs an observation horizon: the planner "
            "re-checks forever; add horizon=<seconds> to the spec"
        )
    config = adaptive_config_for(
        platform=spec.platform,
        workload=spec.workload,
        horizon=spec.horizon,
        timeline=load_timeline(spec.timeline) if spec.timeline is not None else None,
        trace=spec.trace,
        overrides=dict(spec.overrides),
    )
    if config.trace_path is not None:
        workload = WorkloadSource.from_trace(config.trace_path)
    else:
        workload = WorkloadSource.capacity(
            task_flop=config.task_flop, client_tick=config.client_tick
        )
    # The result reads no per-task trace events: only the planner's own
    # status checks, which are kept at every trace level.
    return LabSession(
        platform=PlatformSource.table1(config.nodes_per_cluster),
        workload=workload,
        policy=PolicySource("GREENPERF"),
        provisioning=ProvisioningSource(
            check_period=config.check_period,
            lookahead=config.lookahead,
            ramp_up_step=config.ramp_up_step,
            ramp_down_step=config.ramp_down_step,
            manage_power=config.manage_power,
        ),
        timeline=config.timeline,
        horizon=config.duration,
        trace_level="off",
        sample_period=config.sample_period,
        base_temperature=config.base_temperature,
        requeue_on_failure=config.requeue_on_failure,
    )
