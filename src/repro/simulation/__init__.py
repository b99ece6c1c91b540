"""Discrete-event simulation substrate.

The paper's placement experiment runs on real hardware; its heterogeneity
study already "uses a simulation to manage the level of heterogeneity"
(Section IV-B).  This package provides the simulation engine both reuse:
an event-driven clock, task and queue models, execution tracing and metric
collection (makespan, energy, per-node task counts).
"""

from repro import lazy_exports

#: Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "ScheduledEvent": "repro.simulation.engine",
    "SimulationEngine": "repro.simulation.engine",
    "ExperimentMetrics": "repro.simulation.metrics",
    "MetricsCollector": "repro.simulation.metrics",
    "NodeQueue": "repro.simulation.queueing",
    "Task": "repro.simulation.task",
    "TaskExecution": "repro.simulation.task",
    "TaskState": "repro.simulation.task",
    "ExecutionTrace": "repro.simulation.trace",
    "TraceEvent": "repro.simulation.trace",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
