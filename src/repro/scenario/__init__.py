"""Declarative event timelines and fault injection.

The paper's adaptive experiment (Section IV-C, Figure 9) is driven by
exactly four events: two scheduled tariff drops and one unexpected
thermal excursion with recovery.  This package generalises that quartet
into an open scenario space:

* :mod:`repro.scenario.events` — typed timeline events
  (:class:`TariffChange`, :class:`ThermalExcursion`, :class:`NodeFailure`,
  :class:`NodeRecovery`, :class:`WorkloadBurst`) and the validated,
  ordered :class:`EventTimeline` container.
* :mod:`repro.scenario.io` — TOML/JSON timeline files
  (``docs/SCENARIOS.md``) and the bundled scenarios such as
  ``figure9.toml``.
* :mod:`repro.scenario.generators` — seeded stochastic timeline builders
  (exponential MTBF/MTTR failure streams, periodic tariff cycles).
* :mod:`repro.scenario.apply` — wiring that turns a timeline into
  electricity/thermal schedules and engine-scheduled fault events on a
  :class:`~repro.middleware.driver.MiddlewareSimulation`.

A timeline is plain data with a deterministic content hash, so it can be
an axis of a :class:`~repro.runner.spec.ScenarioSpec` sweep exactly like
a workload trace: the hash keys the result store, and two processes
hashing the same timeline always agree.
"""

from repro import lazy_exports

#: Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "EventTimeline": "repro.scenario.events",
    "NodeFailure": "repro.scenario.events",
    "NodeRecovery": "repro.scenario.events",
    "TariffChange": "repro.scenario.events",
    "ThermalExcursion": "repro.scenario.events",
    "TimelineError": "repro.scenario.events",
    "WorkloadBurst": "repro.scenario.events",
    "bundled_timeline": "repro.scenario.io",
    "bundled_timeline_path": "repro.scenario.io",
    "exponential_failures": "repro.scenario.generators",
    "load_timeline": "repro.scenario.io",
    "periodic_tariffs": "repro.scenario.generators",
    "timeline_file_hash": "repro.scenario.io",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
