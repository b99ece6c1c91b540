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

from repro.scenario.events import (
    EventTimeline,
    NodeFailure,
    NodeRecovery,
    TariffChange,
    ThermalExcursion,
    TimelineError,
    WorkloadBurst,
)
from repro.scenario.generators import exponential_failures, periodic_tariffs
from repro.scenario.io import (
    bundled_timeline,
    bundled_timeline_path,
    load_timeline,
    timeline_file_hash,
)

__all__ = [
    "EventTimeline",
    "NodeFailure",
    "NodeRecovery",
    "TariffChange",
    "ThermalExcursion",
    "TimelineError",
    "WorkloadBurst",
    "bundled_timeline",
    "bundled_timeline_path",
    "exponential_failures",
    "load_timeline",
    "periodic_tariffs",
    "timeline_file_hash",
]
