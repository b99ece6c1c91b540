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
* :mod:`repro.middleware.hierarchy` — helpers building an agent hierarchy
  from a platform description.
* :mod:`repro.middleware.driver` — the simulation driver that executes
  elected requests on the platform and accounts time and energy.
"""

from repro import lazy_exports

#: Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "Agent": "repro.middleware.agents",
    "HierarchyError": "repro.middleware.agents",
    "LocalAgent": "repro.middleware.agents",
    "MasterAgent": "repro.middleware.agents",
    "MiddlewareSimulation": "repro.middleware.driver",
    "SimulationResult": "repro.middleware.driver",
    "EstimationTags": "repro.middleware.estimation",
    "EstimationVector": "repro.middleware.estimation",
    "build_hierarchy": "repro.middleware.hierarchy",
    "CandidateEntry": "repro.middleware.plugin_scheduler",
    "FirstComeFirstServedScheduler": "repro.middleware.plugin_scheduler",
    "PluginScheduler": "repro.middleware.plugin_scheduler",
    "ServiceRequest": "repro.middleware.requests",
    "SchedulingOutcome": "repro.middleware.requests",
    "ServerDaemon": "repro.middleware.sed",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
