"""The declarative surface: one resolver per family from a spec to a session.

:func:`session_for_spec` resolves a frozen
:class:`~repro.runner.spec.ScenarioSpec` (preset names, policy, trace/
timeline paths) into a runnable :class:`~repro.lab.session.LabSession`,
and :func:`execute_spec` is the sweep executor's unit of work.  Each
experiment family owns exactly one resolver, a function from a spec to a
session: :func:`repro.experiments.placement.placement_session`,
:func:`~repro.experiments.greenperf_eval.heterogeneity_session`,
:func:`~repro.experiments.adaptive.adaptive_session` and
:func:`~repro.experiments.queue_family.queue_session`.  The paper's
tables and figures are named grids of such specs
(:mod:`repro.runner.grids`) plus a renderer
(:mod:`repro.experiments.reporting`).

``trace`` and ``timeline`` are legal on *every* family, and they are
the only way a file enters a scenario: both participate in the content
hash, while an override naming a file would not.  The resolvers refuse
spec values they would otherwise ignore or alias — a seed on a
deterministic policy, a preference outside GREEN_SCORE
(:func:`reject_unused`), an unknown or non-integer override
(:func:`resolve_parameters`) — because every field participates in the
content hash, and a swept-but-ignored field would cache identical
simulations under distinct labels.

Experiment modules are imported lazily inside :func:`family_resolvers`
so the lab package stays import-light and cycle-free.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.lab.session import LabSession
from repro.runner.spec import ScenarioSpec
from repro.runner.store import ScenarioResult
from repro.util.validation import ensure_integer


def reject_unused(spec: ScenarioSpec, **unused: object) -> None:
    """Refuse spec fields the experiment family would silently ignore.

    Every field participates in the content hash, so a sweep over a field
    the resolver ignores would run identical simulations under distinct
    labels (and cache them as distinct entries).  Failing loudly keeps
    sweep axes honest.
    """
    for name, default in unused.items():
        if getattr(spec, name) != default:
            raise ValueError(
                f"{spec.experiment} scenarios do not use {name!r} "
                f"(got {getattr(spec, name)!r}); drop it from the sweep axes"
            )


def preset_value(presets: Mapping[str, object], name: str, kind: str):
    """Look ``name`` up in a preset table, failing with the available names."""
    try:
        return presets[name]
    except KeyError:
        raise ValueError(
            f"unknown {kind} preset {name!r}; available: {sorted(presets)}"
        ) from None


def resolve_parameters(
    spec: ScenarioSpec,
    defaults: Mapping[str, object],
    presets: Mapping[str, Mapping[str, object]],
    *,
    integers: Sequence[str] = (),
) -> dict[str, object]:
    """A family's run parameters: ``defaults``, then the workload preset, then overrides.

    The spec's ``workload`` names the preset; ``workload="trace"``
    replays the spec's trace and starts from the ``"paper"`` preset.
    Every override must name a parameter the defaults or preset declare
    (the family's valid overrides), and an override of an ``integers``
    key must be an integer.

    >>> spec = ScenarioSpec(experiment="heterogeneity", overrides={"clients": 3})
    >>> resolve_parameters(spec, {"clients": 2, "task_flop": 1.0}, {"paper": {}})
    {'clients': 3, 'task_flop': 1.0}
    >>> resolve_parameters(spec.replace(overrides={"nope": 1}), {"clients": 2}, {"paper": {}})
    Traceback (most recent call last):
    ...
    ValueError: unknown heterogeneity parameter(s) ['nope']; valid overrides: ['clients']
    """
    family, overrides = spec.experiment, dict(spec.overrides)
    workload = "paper" if spec.workload == "trace" else spec.workload
    params = {**defaults, **preset_value(presets, workload, f"{family} workload")}
    unknown = sorted(set(overrides) - set(params))
    if unknown:
        raise ValueError(
            f"unknown {family} parameter(s) {unknown}; "
            f"valid overrides: {sorted(params)}"
        )
    for key in integers:
        if key in overrides:
            ensure_integer(overrides[key], key)
    params.update(overrides)
    return params


def family_resolvers() -> dict[str, Callable[[ScenarioSpec], LabSession]]:
    """Each experiment family's resolver, by family name (imports every family)."""
    from repro.experiments.adaptive import adaptive_session
    from repro.experiments.greenperf_eval import heterogeneity_session
    from repro.experiments.placement import placement_session
    from repro.experiments.queue_family import queue_session

    return {
        "placement": placement_session,
        "heterogeneity": heterogeneity_session,
        "adaptive": adaptive_session,
        "queue": queue_session,
    }


def session_for_spec(spec: ScenarioSpec) -> LabSession:
    """Resolve a declarative scenario spec into a runnable lab session.

    The session is validated (component combination checked once) before
    it is returned, so callers can rely on :class:`ValueError` surfacing
    here rather than mid-run.
    """
    try:
        resolver = family_resolvers()[spec.experiment]
    except KeyError:
        raise ValueError(f"unknown experiment family {spec.experiment!r}") from None
    return resolver(spec).validate()


def execute_spec(spec: ScenarioSpec) -> ScenarioResult:
    """Run one scenario spec through the lab and wrap its flat summary.

    This is the sweep executor's unit of work: the uniform
    :class:`~repro.lab.observe.LabResult` metrics/detail mappings are
    exactly the historical per-family sweep payloads, so stores written
    before the lab refactor keep serving cache hits byte-identically.
    """
    result = session_for_spec(spec).run()
    return ScenarioResult(
        spec=spec, metrics=dict(result.metrics), detail=dict(result.detail)
    )
