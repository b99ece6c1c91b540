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

from repro import lazy_exports

#: Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "adaptive_session": "repro.experiments.adaptive",
    "HeterogeneityResult": "repro.experiments.greenperf_eval",
    "heterogeneity_session": "repro.experiments.greenperf_eval",
    "placement_session": "repro.experiments.placement",
    "queue_session": "repro.experiments.queue_family",
    "paper_infrastructure_table": "repro.experiments.presets",
    "simulated_clusters_table": "repro.experiments.presets",
    "energy_saving": "repro.experiments.reporting",
    "format_adaptive_series": "repro.experiments.reporting",
    "format_energy_per_cluster": "repro.experiments.reporting",
    "format_metric_points": "repro.experiments.reporting",
    "format_table2": "repro.experiments.reporting",
    "format_task_distribution": "repro.experiments.reporting",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
