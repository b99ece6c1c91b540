"""Typed, orthogonal axes of a :class:`~repro.lab.session.LabSession`.

The paper's system is *one* middleware observed through different
experiments; a lab session therefore decomposes an experiment into
independent components instead of hand-wiring a platform, a workload, a
policy and an event scenario per experiment family:

* :class:`PlatformSource` — what infrastructure the middleware runs on
  (the Table I clusters, or the single-task server types of the
  heterogeneity study);
* :class:`WorkloadSource` — where requests come from (a synthetic
  generator, a replayed trace file, or a closed-loop client);
* :class:`PolicySource` — the plug-in scheduler under test;
* :data:`ProvisioningSource` — the optional adaptive
  :class:`~repro.core.provisioning.ProvisioningPlanner`'s cadence (the
  :class:`~repro.core.provisioning.ProvisioningConfig` class itself);
* :func:`resolve_timeline` — the optional declarative
  :class:`~repro.scenario.events.EventTimeline` (tariffs, thermal
  excursions, node crashes, workload bursts).

Each component is a frozen value object that checks its own values on
construction and knows how to *build* its piece of the simulation;
:class:`~repro.lab.session.LabSession` validates the combination once and
assembles everything in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

from repro.core.policies import policy_by_name
from repro.core.provisioning import ProvisioningConfig
from repro.infrastructure.node import NodeSpec
from repro.infrastructure.platform import (
    Platform,
    grid5000_placement_platform,
    orion_spec,
    simulated_cluster_specs,
    taurus_spec,
)
from repro.middleware.plugin_scheduler import PluginScheduler
from repro.policy.queue.policies import QUEUE_POLICY_NAMES
from repro.scenario.events import EventTimeline
from repro.simulation.task import Task
from repro.util.validation import ensure_positive
from repro.workload.generator import WorkloadGenerator


class LabError(ValueError):
    """An invalid component combination or component parameter."""


# -- platform ---------------------------------------------------------------------------

#: Default per-task cost of the closed-loop capacity client (the adaptive
#: experiment's task size).
CAPACITY_TASK_FLOP = 6.9e11


def server_type_specs(kinds: int) -> tuple[NodeSpec, ...]:
    """The single-task server types of the heterogeneity study.

    ``kinds=2`` uses the Orion and Taurus types of Table I; ``kinds=3``
    adds the simulated Sim1 type and ``kinds=4`` the Sim2 type of
    Table III.

    >>> [spec.cluster for spec in server_type_specs(4)]
    ['orion', 'taurus', 'sim1', 'sim2']
    """
    if kinds not in (2, 3, 4):
        raise LabError(f"kinds must be 2, 3 or 4, got {kinds}")
    specs = [orion_spec(), taurus_spec()]
    sims = simulated_cluster_specs()
    if kinds >= 3:
        specs.append(sims["sim1"])
    if kinds == 4:
        specs.append(sims["sim2"])
    return tuple(specs)


@dataclass(frozen=True)
class PlatformSource:
    """The infrastructure a session runs on.

    Two kinds cover the paper's evaluation:

    * ``"table1"`` — the Grid'5000 placement platform of Table I
      (Orion + Taurus + Sagittaire), ``nodes_per_cluster`` nodes each;
    * ``"server-types"`` — ``server_kinds`` single-task server types ×
      ``servers_per_type`` servers, the closed-loop heterogeneity study
      of Section IV-B.

    >>> PlatformSource.table1(1).build_platform().total_cores > 0
    True
    >>> len(PlatformSource.server_types(2, servers_per_type=3).server_specs())
    2
    """

    kind: str = "table1"
    nodes_per_cluster: int = 4
    server_kinds: int = 2
    servers_per_type: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("table1", "server-types"):
            raise LabError(
                f"platform kind must be 'table1' or 'server-types', got {self.kind!r}"
            )
        if self.nodes_per_cluster < 1:
            raise LabError(
                f"nodes_per_cluster must be >= 1, got {self.nodes_per_cluster}"
            )
        if self.servers_per_type < 1:
            raise LabError(
                f"servers_per_type must be >= 1, got {self.servers_per_type}"
            )

    @classmethod
    def table1(cls, nodes_per_cluster: int = 4) -> "PlatformSource":
        """The Table I platform with ``nodes_per_cluster`` nodes per cluster."""
        return cls(kind="table1", nodes_per_cluster=nodes_per_cluster)

    @classmethod
    def server_types(cls, kinds: int, *, servers_per_type: int = 2) -> "PlatformSource":
        """``kinds`` single-task server types, ``servers_per_type`` each."""
        server_type_specs(kinds)  # validate early
        return cls(
            kind="server-types", server_kinds=kinds, servers_per_type=servers_per_type
        )

    def build_platform(self) -> Platform:
        """The middleware-backend :class:`Platform` (``"table1"`` kind only)."""
        if self.kind != "table1":
            raise LabError(
                "server-types platforms run the closed-loop point study and "
                "do not build a middleware Platform"
            )
        return grid5000_placement_platform(nodes_per_cluster=self.nodes_per_cluster)

    def server_specs(self) -> tuple[NodeSpec, ...]:
        """The server-type specs (``"server-types"`` kind only)."""
        if self.kind != "server-types":
            raise LabError("table1 platforms have no single-task server specs")
        return server_type_specs(self.server_kinds)


# -- workload ---------------------------------------------------------------------------

#: A generator, or a factory sized by the platform's total core count.
GeneratorLike = Union[WorkloadGenerator, Callable[[int], WorkloadGenerator]]


@dataclass(frozen=True)
class WorkloadSource:
    """Where a session's requests come from.

    Five kinds:

    * ``"generator"`` — a synthetic :class:`WorkloadGenerator` (or a
      factory called with the platform's total core count, which is how
      the paper sizes its 10-requests-per-core placement workload);
    * ``"trace"`` — a replayed trace file (CSV, or a raw SWF log mapped
      with the default :class:`~repro.workload.ingest.SWFTraceMap`);
    * ``"capacity"`` — the adaptive experiment's closed-loop client: a
      continuous flow topping in-flight requests up to the capacity of
      the current candidate nodes (requires provisioning);
    * ``"point-load"`` — the heterogeneity study's closed loop:
      ``clients`` clients each keeping one request in flight for
      ``tasks_per_client`` tasks;
    * ``"served"`` — requests arrive over the wire: the session is
      opened as resident serving state
      (:meth:`~repro.lab.session.LabSession.open_state`) for a
      :class:`~repro.serve.service.PlacementService` instead of being run
      to completion.
    """

    kind: str = "generator"
    generator: GeneratorLike | None = None
    trace_path: str | None = None
    task_flop: float = CAPACITY_TASK_FLOP
    client_tick: float = 60.0
    clients: int = 2
    tasks_per_client: int = 50

    def __post_init__(self) -> None:
        if self.kind not in ("generator", "trace", "capacity", "point-load", "served"):
            raise LabError(f"unknown workload kind {self.kind!r}")
        if self.kind == "generator" and self.generator is None:
            raise LabError("generator workloads need a generator= or factory")
        if self.kind == "trace" and not self.trace_path:
            raise LabError("trace workloads need a trace_path")
        ensure_positive(self.task_flop, "task_flop")
        ensure_positive(self.client_tick, "client_tick")
        if self.clients < 1:
            raise LabError(f"clients must be >= 1, got {self.clients}")
        if self.tasks_per_client < 1:
            raise LabError(
                f"tasks_per_client must be >= 1, got {self.tasks_per_client}"
            )

    @classmethod
    def from_generator(cls, generator: GeneratorLike) -> "WorkloadSource":
        """A synthetic workload (instance, or a factory of the core count)."""
        return cls(kind="generator", generator=generator)

    @classmethod
    def from_trace(cls, path: str | Path) -> "WorkloadSource":
        """Replay the trace file at ``path`` (CSV, or ``.swf`` raw log)."""
        return cls(kind="trace", trace_path=str(path))

    @classmethod
    def capacity(
        cls,
        *,
        task_flop: float = CAPACITY_TASK_FLOP,
        client_tick: float = 60.0,
    ) -> "WorkloadSource":
        """The adaptive closed-loop client (provisioning required)."""
        return cls(kind="capacity", task_flop=task_flop, client_tick=client_tick)

    @classmethod
    def point_load(
        cls, *, clients: int = 2, tasks_per_client: int = 50, task_flop: float = 5.0e10
    ) -> "WorkloadSource":
        """The heterogeneity study's one-request-in-flight closed loop."""
        return cls(
            kind="point-load",
            clients=clients,
            tasks_per_client=tasks_per_client,
            task_flop=task_flop,
        )

    @classmethod
    def served(cls) -> "WorkloadSource":
        """Requests arrive over the wire (open the session as a service)."""
        return cls(kind="served")

    @property
    def open_loop(self) -> bool:
        """Whether the workload is a pre-computed task stream."""
        return self.kind in ("generator", "trace")

    def resolve_tasks(self, total_cores: int = 0) -> tuple[Task, ...]:
        """Materialise an open-loop workload as a sorted task tuple."""
        if self.kind == "trace":
            from repro.workload.traces import TraceWorkload

            return tuple(TraceWorkload.from_file(self.trace_path).generate())
        if self.kind != "generator":
            raise LabError(f"{self.kind} workloads have no pre-computed task stream")
        generator = self.generator
        if not isinstance(generator, WorkloadGenerator):
            generator = generator(total_cores)
        return tuple(generator.generate())


# -- policy -----------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicySource:
    """The scheduling policy under test.

    ``seed`` is forwarded to stochastic policies (RANDOM) and
    ``preference`` to the GREEN_SCORE default user preference; leave them
    ``None`` for policies that do not take them.

    ``family`` selects how the policy executes: ``"plugin"`` runs it as
    a per-request plug-in scheduler (the GreenPerf family, or the
    placement adapter of a queue policy), ``"queue"`` runs it on the
    batch queue backend of :class:`~repro.lab.session.LabSession`
    (backfill, reservations, fair share — :mod:`repro.policy.queue`).
    The default ``"auto"`` resolves by name: queue-family names get the
    queue backend, everything else the plug-in path.

    >>> PolicySource("power").build().name
    'POWER'
    >>> PolicySource("easy").resolved_family
    'queue'
    >>> PolicySource("easy", family="plugin").resolved_family
    'plugin'
    """

    name: str = "POWER"
    seed: int | None = None
    preference: float | None = None
    family: str = "auto"

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise LabError("policy name must be non-empty")
        object.__setattr__(self, "name", self.name.strip().upper())
        if self.family not in ("auto", "plugin", "queue"):
            raise LabError(
                f"policy family must be 'auto', 'plugin' or 'queue', "
                f"got {self.family!r}"
            )
        if self.family == "queue" and self.name not in QUEUE_POLICY_NAMES:
            raise LabError(
                f"{self.name} is not a queue-family policy; "
                f"queue names are {QUEUE_POLICY_NAMES}"
            )

    @property
    def resolved_family(self) -> str:
        """``"queue"`` or ``"plugin"`` after resolving ``"auto"`` by name."""
        if self.family != "auto":
            return self.family
        return "queue" if self.name in QUEUE_POLICY_NAMES else "plugin"

    def build(self) -> PluginScheduler:
        """Instantiate the per-request plug-in form of the policy.

        Queue-family names resolve to their placement adapter
        (:class:`~repro.middleware.queue_adapter.QueuePlacementAdapter`);
        the queue backend builds the batch form with
        :func:`~repro.policy.queue.policies.queue_policy_by_name`
        instead of calling this.
        """
        kwargs: dict[str, object] = {}
        if self.seed is not None:
            kwargs["seed"] = self.seed
        if self.preference is not None:
            kwargs["default_preference"] = self.preference
        return policy_by_name(self.name, **kwargs)


# -- provisioning -----------------------------------------------------------------------

#: The optional adaptive provisioning axis (Section III-C): the cadence of
#: the :class:`~repro.core.provisioning.ProvisioningPlanner` a session
#: installs, validated on construction.  The planner follows the paper's
#: administrator rules: periodic status checks against the
#: timeline-derived electricity/thermal schedules, candidate ramping in
#: GreenPerf order, and node power management unless ``manage_power`` is
#: off.
ProvisioningSource = ProvisioningConfig


# -- timeline ---------------------------------------------------------------------------

TimelineLike = Union[EventTimeline, str, Path, None]


def resolve_timeline(source: TimelineLike) -> EventTimeline | None:
    """Resolve a timeline component: ``None``, an instance, or a file path.

    >>> resolve_timeline(None) is None
    True
    >>> resolve_timeline(EventTimeline()) == EventTimeline()
    True
    """
    if source is None or isinstance(source, EventTimeline):
        return source
    from repro.scenario.io import load_timeline

    return load_timeline(source)
