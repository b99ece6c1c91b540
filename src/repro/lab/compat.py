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

``trace`` and ``timeline`` are legal on *every* family.  The resolvers
refuse spec values they would otherwise ignore or alias — a seed on a
deterministic policy, a preference outside GREEN_SCORE
(:func:`reject_unused`), a non-integer count — because every field
participates in the content hash, and a swept-but-ignored field would
cache identical simulations under distinct labels.

Experiment modules are imported lazily inside :func:`family_resolvers`
so the lab package stays import-light and cycle-free.
"""

from __future__ import annotations

from typing import Callable

from repro.lab.session import LabSession
from repro.runner.spec import ScenarioSpec
from repro.runner.store import ScenarioResult


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
