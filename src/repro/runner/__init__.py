"""repro.runner — declarative, parallel, cached scenario sweeps.

The paper's evaluation is a grid of scenarios (policies × heterogeneity ×
preference weights).  This subsystem turns ad-hoc experiment scripts into
sweeps:

* :mod:`repro.runner.spec` — frozen :class:`ScenarioSpec` value objects
  with deterministic content hashes, and :class:`SweepSpec` grid expansion;
* :mod:`repro.runner.executor` — process-pool fan-out with grid-order
  results (byte-identical aggregation at any ``jobs`` level), streaming
  grid consumption with a bounded in-flight window;
* :mod:`repro.runner.store` — the crash-safe result store keyed by
  scenario hash (cache hit ⇒ no simulation): a
  :class:`ShardedResultStore` directory of per-hash-prefix JSONL shards
  (``store.json`` records the layout), plus percentile aggregation;
* :mod:`repro.runner.workers` — resumable multi-worker sweeps sharing a
  store directory, claiming work shards via lock files;
* :mod:`repro.runner.reporting` — deterministic progress and comparison
  tables;
* :mod:`repro.runner.grids` — the named grids behind ``repro sweep``.
"""

from repro import lazy_exports

#: Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "ScenarioSpec": "repro.runner.spec",
    "SweepSpec": "repro.runner.spec",
    "iter_grid": "repro.runner.spec",
    "ScenarioResult": "repro.runner.store",
    "ShardedResultStore": "repro.runner.store",
    "open_store": "repro.runner.store",
    "summarize": "repro.runner.store",
    "SweepOutcome": "repro.runner.executor",
    "execute_scenario": "repro.runner.executor",
    "run_scenarios": "repro.runner.executor",
    "WorkerReport": "repro.runner.workers",
    "run_worker": "repro.runner.workers",
    "SweepProgressPrinter": "repro.runner.reporting",
    "format_sweep_summary": "repro.runner.reporting",
    "grid": "repro.runner.grids",
    "named_grids": "repro.runner.grids",
    "trace_grid": "repro.runner.grids",
    "trace_file_hash": "repro.runner.spec",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
