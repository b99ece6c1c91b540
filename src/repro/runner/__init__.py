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

from repro.runner.executor import (
    SweepOutcome,
    execute_scenario,
    run_scenarios,
)
from repro.runner.grids import grid, named_grids, trace_grid
from repro.runner.reporting import SweepProgressPrinter, format_sweep_summary
from repro.runner.spec import (
    ScenarioSpec,
    SweepSpec,
    iter_grid,
    trace_file_hash,
)
from repro.runner.store import (
    ScenarioResult,
    ShardedResultStore,
    open_store,
    summarize,
)
from repro.runner.workers import WorkerReport, run_worker

__all__ = [
    "ScenarioSpec",
    "SweepSpec",
    "iter_grid",
    "ScenarioResult",
    "ShardedResultStore",
    "open_store",
    "summarize",
    "SweepOutcome",
    "execute_scenario",
    "run_scenarios",
    "WorkerReport",
    "run_worker",
    "SweepProgressPrinter",
    "format_sweep_summary",
    "grid",
    "named_grids",
    "trace_grid",
    "trace_file_hash",
]
