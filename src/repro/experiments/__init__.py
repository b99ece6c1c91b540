"""Reproductions of every table and figure of the paper's evaluation.

Each experiment family owns one resolver from a
:class:`~repro.runner.spec.ScenarioSpec` to a
:class:`~repro.lab.session.LabSession` (dispatched by
:func:`repro.lab.compat.session_for_spec`), and each paper artifact is a
named grid of specs (:mod:`repro.runner.grids`) plus a renderer:

* :mod:`repro.experiments.presets` — the experimental set-ups of Tables I
  and III and the calibrated workload parameters.
* :mod:`repro.experiments.placement` — the workload-placement family
  (Figures 2–5 and Table II, :func:`~repro.runner.grids.table2_grid`).
* :mod:`repro.experiments.greenperf_eval` — the GreenPerf heterogeneity
  study (Figures 6 and 7, :func:`~repro.runner.grids.heterogeneity_grid`)
  and :class:`HeterogeneityResult`, which reduces one figure's results.
* :mod:`repro.experiments.adaptive` — the adaptive resource-provisioning
  family (Figure 9).
* :mod:`repro.experiments.queue_family` — the batch queue-policy family
  (:func:`~repro.runner.grids.queue_grid`).
* :mod:`repro.experiments.reporting` — plain-text renderers that print
  the results the way the paper reports them.
"""

from repro.experiments.adaptive import adaptive_config_for, adaptive_session
from repro.experiments.greenperf_eval import HeterogeneityResult, heterogeneity_session
from repro.experiments.placement import placement_session
from repro.experiments.presets import (
    PlacementExperimentConfig,
    paper_infrastructure_table,
    placement_config_for,
    simulated_clusters_table,
)
from repro.experiments.queue_family import queue_session
from repro.experiments.reporting import (
    energy_saving,
    format_adaptive_series,
    format_energy_per_cluster,
    format_metric_points,
    format_table2,
    format_task_distribution,
)

__all__ = [
    "adaptive_config_for",
    "adaptive_session",
    "HeterogeneityResult",
    "heterogeneity_session",
    "placement_session",
    "queue_session",
    "placement_config_for",
    "PlacementExperimentConfig",
    "paper_infrastructure_table",
    "simulated_clusters_table",
    "energy_saving",
    "format_adaptive_series",
    "format_energy_per_cluster",
    "format_metric_points",
    "format_table2",
    "format_task_distribution",
]
