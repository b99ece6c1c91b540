"""Reproductions of every table and figure of the paper's evaluation.

* :mod:`repro.experiments.presets` — the experimental set-ups of Tables I
  and III and the calibrated workload parameters.
* :mod:`repro.experiments.placement` — the workload-placement experiment
  (Figures 2–5 and Table II).
* :mod:`repro.experiments.greenperf_eval` — the GreenPerf heterogeneity
  study (Figures 6 and 7).
* :mod:`repro.experiments.adaptive` — the adaptive resource-provisioning
  experiment (Figure 9).
* :mod:`repro.experiments.reporting` — plain-text table/series formatters
  that render the results the way the paper reports them.
"""

from repro.experiments.adaptive import (
    AdaptiveExperimentResult,
    adaptive_config_for,
    run_adaptive_experiment,
)
from repro.experiments.greenperf_eval import (
    HeterogeneityResult,
    MetricPoint,
    heterogeneity_sweeps,
    run_heterogeneity_experiment,
)
from repro.experiments.placement import (
    PlacementComparison,
    run_placement_experiment,
    run_policy_comparison,
)
from repro.experiments.presets import (
    PlacementExperimentConfig,
    paper_infrastructure_table,
    placement_config_for,
    placement_sweep,
    simulated_clusters_table,
)
from repro.experiments.reporting import (
    format_adaptive_series,
    format_energy_per_cluster,
    format_metric_points,
    format_table2,
    format_task_distribution,
)

__all__ = [
    "AdaptiveExperimentResult",
    "adaptive_config_for",
    "run_adaptive_experiment",
    "HeterogeneityResult",
    "MetricPoint",
    "heterogeneity_sweeps",
    "run_heterogeneity_experiment",
    "placement_config_for",
    "placement_sweep",
    "PlacementComparison",
    "run_placement_experiment",
    "run_policy_comparison",
    "PlacementExperimentConfig",
    "paper_infrastructure_table",
    "simulated_clusters_table",
    "format_adaptive_series",
    "format_energy_per_cluster",
    "format_metric_points",
    "format_table2",
    "format_task_distribution",
]
