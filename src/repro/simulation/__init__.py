"""Discrete-event simulation substrate.

The paper's placement experiment runs on real hardware; its heterogeneity
study already "uses a simulation to manage the level of heterogeneity"
(Section IV-B).  This package provides the simulation engine both reuse:
an event-driven clock, task and queue models, execution tracing and metric
collection (makespan, energy, per-node task counts).
"""

from repro.simulation.engine import ScheduledEvent, SimulationEngine
from repro.simulation.metrics import ExperimentMetrics, MetricsCollector
from repro.simulation.queueing import NodeQueue
from repro.simulation.task import Task, TaskExecution, TaskState
from repro.simulation.trace import ExecutionTrace, TraceEvent

__all__ = [
    "ScheduledEvent",
    "SimulationEngine",
    "ExperimentMetrics",
    "MetricsCollector",
    "NodeQueue",
    "Task",
    "TaskExecution",
    "TaskState",
    "ExecutionTrace",
    "TraceEvent",
]
