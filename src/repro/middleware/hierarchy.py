"""Building agent hierarchies from platform descriptions.

The paper deploys one Master Agent and twelve SeDs spread over three
clusters (Table I).  The natural DIET topology for such a platform is one
Local Agent per cluster under the Master Agent, with one SeD per node —
that is what :func:`build_hierarchy` produces.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.infrastructure.platform import Platform
from repro.middleware.agents import LocalAgent, MasterAgent
from repro.middleware.plugin_scheduler import PluginScheduler
from repro.middleware.sed import ServerDaemon

#: The paper's single CPU-bound service, offered when no workload says otherwise.
DEFAULT_SERVICES = ("cpu-burn",)


def workload_services(tasks: Iterable) -> tuple[str, ...]:
    """The sorted service names a workload requests.

    Synthetic workloads keep the paper's single ``"cpu-burn"`` service
    (also the fallback for an empty workload), while replayed traces —
    whose tasks carry queue/partition-derived service names — stay
    schedulable instead of being rejected wholesale.

    >>> from repro.simulation.task import Task
    >>> workload_services([Task(service="q2"), Task(service="q1"), Task()])
    ('cpu-burn', 'q1', 'q2')
    >>> workload_services([])
    ('cpu-burn',)
    """
    return tuple(sorted({task.service for task in tasks})) or DEFAULT_SERVICES


def build_hierarchy(
    platform: Platform,
    *,
    scheduler: PluginScheduler | None = None,
    services: Iterable[str] | None = None,
    workload: Sequence | None = None,
) -> tuple[MasterAgent, Mapping[str, ServerDaemon]]:
    """Create a Master Agent hierarchy covering every node of ``platform``.

    Parameters
    ----------
    platform:
        The infrastructure to expose through the middleware.
    scheduler:
        The Master Agent's plug-in scheduler, which every agent sorts with
        (fixed for the hierarchy's life).
    services:
        Services offered by every SeD.  When omitted, they are derived
        from ``workload`` (every service the workload requests), falling
        back to the paper's single ``"cpu-burn"`` service.
    workload:
        Optional task sequence the hierarchy will serve; only consulted
        when ``services`` is omitted (see :func:`workload_services`).

    Returns
    -------
    (master, seds):
        The Master Agent and a mapping from node name to SeD.
    """
    if services is None:
        services = (
            workload_services(workload) if workload is not None else DEFAULT_SERVICES
        )
    services = tuple(services)
    master = MasterAgent(scheduler=scheduler)
    seds: dict[str, ServerDaemon] = {}

    for cluster in platform.clusters:
        local_agent = LocalAgent(f"la-{cluster.name}")
        master.add_agent(local_agent)
        for node in cluster:
            sed = ServerDaemon(node, services=services)
            local_agent.add_sed(sed)
            seds[node.name] = sed

    return master, seds
