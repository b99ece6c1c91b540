"""In-process model of the DIET middleware.

DIET (Distributed Interactive Engineering Toolbox) schedules client
requests onto Server Daemons (SeD) through a hierarchy of agents — a
Master Agent (MA) at the top, Local Agents (LA) below — using *estimation
vectors* filled by each SeD and *plug-in schedulers* that sort candidate
servers at every level of the hierarchy (Section II-A of the paper).

This package reproduces those mechanisms faithfully enough that the
paper's green plug-in scheduler can be dropped in unchanged:

* :mod:`repro.middleware.estimation` — estimation vectors and their tags.
* :mod:`repro.middleware.sed` — the Server Daemon bound to a node.
* :mod:`repro.middleware.plugin_scheduler` — the sorting plug-in
  interface.
* :mod:`repro.middleware.agents` — Local and Master agents, hierarchical
  candidate collection and election.
* :mod:`repro.middleware.client` — the client-side request API.
* :mod:`repro.middleware.hierarchy` — helpers building an agent hierarchy
  from a platform description.
* :mod:`repro.middleware.driver` — the simulation driver that executes
  elected requests on the platform and accounts time and energy.
"""

from repro.middleware.agents import Agent, HierarchyError, LocalAgent, MasterAgent
from repro.middleware.client import Client
from repro.middleware.driver import MiddlewareSimulation, SimulationResult
from repro.middleware.estimation import EstimationTags, EstimationVector
from repro.middleware.hierarchy import build_hierarchy
from repro.middleware.plugin_scheduler import (
    CandidateEntry,
    FirstComeFirstServedScheduler,
    PluginScheduler,
)
from repro.middleware.requests import ServiceRequest, SchedulingOutcome
from repro.middleware.sed import ServerDaemon

__all__ = [
    "Agent",
    "HierarchyError",
    "LocalAgent",
    "MasterAgent",
    "Client",
    "MiddlewareSimulation",
    "SimulationResult",
    "EstimationTags",
    "EstimationVector",
    "build_hierarchy",
    "CandidateEntry",
    "FirstComeFirstServedScheduler",
    "PluginScheduler",
    "ServiceRequest",
    "SchedulingOutcome",
    "ServerDaemon",
]
