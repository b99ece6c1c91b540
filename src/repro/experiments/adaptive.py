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

from typing import Mapping

from repro.experiments.presets import PLATFORM_PRESETS
from repro.lab.compat import preset_value, reject_unused, resolve_parameters
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
from repro.util.validation import ensure_positive

_MINUTE = 60.0

#: The adaptive parameters before any preset: the paper's 260-minute
#: scenario, with each component's own defaults.
_PAPER_SCENARIO = {
    "duration": 260 * _MINUTE,
    "check_period": ProvisioningSource.check_period,
    "lookahead": ProvisioningSource.lookahead,
    "ramp_up_step": ProvisioningSource.ramp_up_step,
    "ramp_down_step": ProvisioningSource.ramp_down_step,
    "manage_power": ProvisioningSource.manage_power,
    "task_flop": WorkloadSource.task_flop,
    "client_tick": WorkloadSource.client_tick,
    "sample_period": 5.0,
    "base_temperature": LabSession.base_temperature,
    "requeue_on_failure": LabSession.requeue_on_failure,
}

#: Workload presets of the adaptive experiment, by scale.  Values replace
#: the paper scenario's parameters.
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


def adaptive_session(spec: ScenarioSpec) -> LabSession:
    """Resolve an adaptive spec into a lab session (Figure 9).

    Platform size, provisioning cadence and workload scale come from the
    spec's presets and overrides; ``horizon`` replaces the simulated
    ``duration`` and ``timeline`` the bundled Figure 9 events.  The workload
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
    params = resolve_parameters(
        spec,
        {
            **_PAPER_SCENARIO,
            "nodes_per_cluster": preset_value(PLATFORM_PRESETS, spec.platform, "platform"),
        },
        ADAPTIVE_WORKLOAD_PRESETS,
        integers=("nodes_per_cluster", "ramp_up_step", "ramp_down_step"),
    )
    capacity = WorkloadSource.capacity(
        task_flop=params["task_flop"], client_tick=params["client_tick"]
    )
    if spec.horizon is None:
        ensure_positive(params["duration"], "duration")
    # The result reads no per-task trace events: only the planner's own
    # status checks, which are kept at every trace level.
    return LabSession(
        platform=PlatformSource.table1(params["nodes_per_cluster"]),
        workload=(
            WorkloadSource.from_trace(spec.trace) if spec.trace is not None else capacity
        ),
        policy=PolicySource("GREENPERF"),
        provisioning=ProvisioningSource(
            check_period=params["check_period"],
            lookahead=params["lookahead"],
            ramp_up_step=params["ramp_up_step"],
            ramp_down_step=params["ramp_down_step"],
            manage_power=params["manage_power"],
        ),
        timeline=(
            load_timeline(spec.timeline)
            if spec.timeline is not None
            else default_adaptive_timeline()
        ),
        horizon=spec.horizon if spec.horizon is not None else params["duration"],
        trace_level="off",
        sample_period=params["sample_period"],
        base_temperature=params["base_temperature"],
        requeue_on_failure=params["requeue_on_failure"],
    )
