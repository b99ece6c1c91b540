"""Named scenario grids for ``repro sweep`` and the paper's figures.

Each grid is a composition of :class:`~repro.runner.spec.SweepSpec`s
covering one slice of the paper's evaluation.  A paper artifact is one
grid function plus a renderer: ``repro table2`` and ``fig2``–``fig5``
run :func:`table2_grid`, ``fig6``/``fig7`` run :func:`heterogeneity_grid`,
and :mod:`repro.experiments.reporting` renders the results.  The named
``table2`` and ``heterogeneity`` grids are these functions at their
defaults.  Grids are defined purely in terms of spec presets — the
experiment modules resolve the preset names at execution time — so this
module stays importable without touching any simulation code.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.runner.spec import Scalar, ScenarioSpec, SweepSpec, iter_grid


def _default_grid() -> tuple[ScenarioSpec, ...]:
    """The 24-scenario demonstration grid (quick presets, every family)."""
    placement = ScenarioSpec(experiment="placement", platform="quick", workload="quick")
    return tuple(
        iter_grid(
            (
                SweepSpec(placement, {"policy": ("POWER", "GREENPERF", "PERFORMANCE")}),
                SweepSpec(placement.replace(policy="RANDOM"), {"seed": (0, 1, 2, 3, 4)}),
                SweepSpec(
                    placement.replace(policy="GREEN_SCORE"),
                    {"preference": (-0.75, -0.25, 0.25, 0.75)},
                ),
                *heterogeneity_grid(scale="quick", seeds=(0,)),
                ScenarioSpec(
                    experiment="adaptive",
                    platform="quick",
                    workload="quick",
                    policy="GREENPERF",
                    horizon=3600.0,
                ),
            )
        )
    )


def _smoke_grid() -> tuple[ScenarioSpec, ...]:
    """A three-scenario grid small enough for unit tests and CI smoke runs."""
    placement = ScenarioSpec(experiment="placement", platform="tiny", workload="tiny")
    return tuple(
        iter_grid(
            (
                SweepSpec(placement, {"policy": ("POWER", "RANDOM")}),
                ScenarioSpec(
                    experiment="heterogeneity",
                    platform="types2",
                    workload="tiny",
                    policy="GREENPERF",
                ),
            )
        )
    )


def table2_grid(scale: str = "paper", seed: int = 0) -> tuple[ScenarioSpec, ...]:
    """The placement comparison behind Table II and Figures 2–5.

    RANDOM, POWER and PERFORMANCE on the Table I platform, with ``scale``
    naming both the platform and the workload preset.  ``seed`` moves
    RANDOM's draws; the deterministic policies take none.

    >>> for spec in table2_grid("quick", seed=3):
    ...     print(spec.scenario_id)
    placement/quick/quick/RANDOM/p+0.00/s3
    placement/quick/quick/POWER/p+0.00/s0
    placement/quick/quick/PERFORMANCE/p+0.00/s0
    """
    base = ScenarioSpec(experiment="placement", platform=scale, workload=scale)
    return tuple(
        iter_grid(
            (
                base.replace(policy="RANDOM", seed=seed),
                SweepSpec(base, {"policy": ("POWER", "PERFORMANCE")}),
            )
        )
    )


def heterogeneity_grid(
    kinds: Sequence[int] = (2, 3, 4),
    scale: str = "paper",
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    overrides: Mapping[str, Scalar] | None = None,
) -> tuple[ScenarioSpec, ...]:
    """The GreenPerf heterogeneity study behind Figures 6 and 7.

    POWER, GREENPERF and PERFORMANCE at every server-type count in
    ``kinds``, then RANDOM over ``seeds`` at the lowest and the highest
    count: the shaded areas of Figure 6 (two types) and Figure 7 (four).
    ``scale`` names the workload preset and ``overrides`` replace its
    parameters.

    >>> for spec in heterogeneity_grid((2,), "quick", seeds=(7,)):
    ...     print(spec.scenario_id)
    heterogeneity/types2/quick/POWER/p+0.00/s0
    heterogeneity/types2/quick/GREENPERF/p+0.00/s0
    heterogeneity/types2/quick/PERFORMANCE/p+0.00/s0
    heterogeneity/types2/quick/RANDOM/p+0.00/s7
    """
    platforms = tuple(f"types{count}" for count in kinds)
    ends = tuple(dict.fromkeys((f"types{min(kinds)}", f"types{max(kinds)}")))
    base = ScenarioSpec(
        experiment="heterogeneity",
        platform=platforms[0],
        workload=scale,
        overrides=overrides,
    )
    return tuple(
        iter_grid(
            (
                SweepSpec(
                    base,
                    {
                        "platform": platforms,
                        "policy": ("POWER", "GREENPERF", "PERFORMANCE"),
                    },
                ),
                SweepSpec(
                    base.replace(policy="RANDOM"),
                    {"platform": ends, "seed": tuple(seeds)},
                ),
            )
        )
    )


def _preferences_grid() -> tuple[ScenarioSpec, ...]:
    """GREEN_SCORE preference-weight sweep (Equation 1 trade-off curve)."""
    base = ScenarioSpec(
        experiment="placement", platform="quick", workload="quick", policy="GREEN_SCORE"
    )
    return tuple(
        iter_grid(
            SweepSpec(base, {"preference": (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)})
        )
    )


#: The platforms, placement policies and observation horizons (s) of the
#: trace, timeline and cross grids.
_FILE_PLATFORMS = ("quick", "half")
_FILE_POLICIES = ("POWER", "PERFORMANCE")
_TIMELINE_HORIZONS = (1800.0, 3600.0)


def trace_grid(trace: str) -> tuple[ScenarioSpec, ...]:
    """A placement grid replaying one trace file: platforms × policies.

    This is the grid behind ``repro sweep --trace``: the same recorded
    request stream (converted from a real log by ``repro trace convert``)
    placed by each policy on each platform size, a 2×2 grid.  The trace
    file's content hash is folded into every scenario hash, so a store
    built from one trace stays correct when the file is edited.
    """
    base = ScenarioSpec(
        experiment="placement",
        platform=_FILE_PLATFORMS[0],
        workload="trace",
        trace=trace,
    )
    return tuple(
        iter_grid(SweepSpec(base, {"platform": _FILE_PLATFORMS, "policy": _FILE_POLICIES}))
    )


def timeline_grid(timeline: str) -> tuple[ScenarioSpec, ...]:
    """An adaptive grid replaying one timeline file: platforms × horizons.

    This is the grid behind ``repro sweep --timeline``: the same declared
    event stream (tariffs, thermal excursions, node crashes, bursts — see
    ``docs/SCENARIOS.md``) run on each platform size over each
    observation horizon, a 2×2 grid.  The *parsed* timeline's content
    hash is folded into every scenario hash, so a store built from one
    timeline stays correct when the file is edited and survives the file
    being moved or reformatted.
    """
    base = ScenarioSpec(
        experiment="adaptive",
        platform=_FILE_PLATFORMS[0],
        workload="quick",
        policy="GREENPERF",
        horizon=_TIMELINE_HORIZONS[0],
        timeline=timeline,
    )
    return tuple(
        iter_grid(
            SweepSpec(base, {"platform": _FILE_PLATFORMS, "horizon": _TIMELINE_HORIZONS})
        )
    )


def cross_grid(trace: str, timeline: str) -> tuple[ScenarioSpec, ...]:
    """The trace × timeline × provisioning cross-product grid.

    This is the grid behind ``repro sweep --grid cross --trace FILE
    --timeline FILE`` (and behind giving ``--trace`` and ``--timeline``
    together) — the composition the pre-lab assembly paths could not
    express.  Two slices:

    * a **placement** slice (platforms × POWER/PERFORMANCE): the recorded
      request stream placed by each policy while the timeline crashes
      and repairs nodes under it;
    * an **adaptive** slice (platforms × horizons): the same stream
      replayed open-loop through the provisioning planner — e.g. a real
      SWF week through adaptive provisioning under a crash storm.

    Both content hashes (trace bytes, parsed timeline) fold into every
    scenario hash, so the store stays correct across edits and moves of
    either file.
    """
    placement = ScenarioSpec(
        experiment="placement",
        platform=_FILE_PLATFORMS[0],
        workload="trace",
        trace=trace,
        timeline=timeline,
    )
    adaptive = ScenarioSpec(
        experiment="adaptive",
        platform=_FILE_PLATFORMS[0],
        workload="trace",
        policy="GREENPERF",
        trace=trace,
        timeline=timeline,
        horizon=_TIMELINE_HORIZONS[0],
    )
    return tuple(
        iter_grid(
            (
                SweepSpec(
                    placement,
                    {"platform": _FILE_PLATFORMS, "policy": _FILE_POLICIES},
                ),
                SweepSpec(
                    adaptive,
                    {"platform": _FILE_PLATFORMS, "horizon": _TIMELINE_HORIZONS},
                ),
            )
        )
    )


#: The queue policies of the queue grid.
_QUEUE_POLICIES = ("FCFS", "EASY", "CONSERVATIVE", "DRF")


def queue_grid(
    trace: str | None = None,
    *,
    platforms: Sequence[str] = ("tiny", "quick"),
    queue_cores: int | None = None,
) -> tuple[ScenarioSpec, ...]:
    """The queue-family grid: platforms × queue policies on one job stream.

    This is the grid behind ``repro sweep --grid queue``: the same job
    stream batch-scheduled by each queue policy
    (:mod:`repro.policy.queue`) at each platform scale.  With ``trace``
    the stream is a replayed SWF/CSV log (whose content hash folds into
    every scenario hash); without it, each platform preset generates its
    synthetic burst + continuous stream.  ``queue_cores`` caps the
    scheduled capacity (e.g. a trace's native ``MaxProcs``) so queues
    form and the backfill policies separate from FCFS.
    """
    overrides = {"queue_cores": queue_cores} if queue_cores is not None else None
    base = ScenarioSpec(
        experiment="queue",
        platform=platforms[0],
        workload="trace" if trace is not None else platforms[0],
        policy=_QUEUE_POLICIES[0],
        trace=trace,
        overrides=overrides,
    )
    axes = {"policy": _QUEUE_POLICIES}
    if trace is not None:
        return tuple(
            iter_grid(
                SweepSpec(base, {"platform": tuple(platforms), **axes})
            )
        )
    # Synthetic streams scale the workload preset with the platform, so
    # each platform size schedules a stream sized for its capacity.
    return tuple(
        iter_grid(
            tuple(
                SweepSpec(base.replace(platform=platform, workload=platform), axes)
                for platform in platforms
            )
        )
    )


_GRIDS: dict[str, Callable[[], tuple[ScenarioSpec, ...]]] = {
    "default": _default_grid,
    "smoke": _smoke_grid,
    "table2": table2_grid,
    "heterogeneity": heterogeneity_grid,
    "preferences": _preferences_grid,
    "queue": queue_grid,
}


def named_grids() -> tuple[str, ...]:
    """Names of all registered grids."""
    return tuple(sorted(_GRIDS))


def grid(name: str) -> tuple[ScenarioSpec, ...]:
    """The expanded scenario tuple of one named grid."""
    try:
        factory = _GRIDS[name]
    except KeyError:
        raise ValueError(
            f"unknown grid {name!r}; available: {sorted(_GRIDS)}"
        ) from None
    return factory()
