"""One composable assembly path for every experiment of the reproduction.

A :class:`LabSession` is built from orthogonal components
(:mod:`repro.lab.components`): platform source × workload source ×
scheduling policy × optional provisioning × optional event timeline ×
trace level.  :meth:`LabSession.validate` checks the combination
once; :meth:`LabSession.run` assembles hierarchy, driver and scenario
application in one place and returns a uniform
:class:`~repro.lab.observe.LabResult`.

Three execution backends cover the evaluation:

* the **middleware backend** (``"table1"`` platforms) drives the full
  DIET stack — agent hierarchy, plug-in scheduler, discrete-event engine,
  energy accountant — with an open-loop workload (synthetic generator or
  replayed trace) or the adaptive closed-loop capacity client, optionally
  under a :class:`~repro.core.provisioning.ProvisioningPlanner` and a
  fault-injecting :class:`~repro.scenario.events.EventTimeline`;
* the **point backend** (``"server-types"`` platforms) runs the
  heterogeneity study's engine-less closed loop over single-task
  servers, now also accepting trace workloads (open-loop replay) and
  timelines (node failures become server-unavailability windows; other
  event kinds are inert because the study has no planner);
* the **queue backend** (queue-family policies — FCFS, EASY,
  CONSERVATIVE, DRF of :mod:`repro.policy.queue`) batch-schedules an
  open-loop workload on the platform's aggregated capacity: backfill
  reservations, multi-tenant fair share, and requeue-or-fail fault
  semantics under ``NodeFailure``/``NodeRecovery`` timeline events.

Any workload × any policy × provisioning × any timeline composes here,
so e.g. a real SWF week can replay through adaptive provisioning under a
crash storm — a combination no single pre-lab experiment module could
express.  The golden suite (``tests/test_goldens.py``) pins the
Table II, Figure 6/7 and Figure 9 paths to the exact same bits through
this assembly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.provisioning import ProvisioningPlanner
from repro.lab.components import (
    LabError,
    PlatformSource,
    PolicySource,
    ProvisioningSource,
    TimelineLike,
    WorkloadSource,
    resolve_timeline,
)
from repro.lab.observe import (
    LabResult,
    PointSummary,
    middleware_detail,
    middleware_metrics,
    point_summary_metrics,
    provisioned_metrics,
    queue_energy,
    queue_metrics,
    series_value_at,
    windowed_power,
)
from repro.middleware.driver import TRACE_LEVELS, MiddlewareSimulation
from repro.middleware.estimation import EstimationTags, EstimationVector
from repro.middleware.hierarchy import build_hierarchy
from repro.middleware.plugin_scheduler import CandidateEntry
from repro.middleware.requests import ServiceRequest
from repro.scenario.apply import apply_timeline
from repro.scenario.events import EventTimeline, NodeFailure, NodeRecovery
from repro.simulation.task import Task
from repro.util import phases
from repro.util.validation import ensure_finite, ensure_positive


@dataclass
class LabSession:
    """A validated composition of experiment components.

    >>> from repro.workload.generator import BurstThenContinuousWorkload
    >>> session = LabSession(
    ...     platform=PlatformSource.table1(1),
    ...     workload=WorkloadSource.from_generator(BurstThenContinuousWorkload(
    ...         total_tasks=3, burst_size=1, continuous_rate=1.0, flop_per_task=1e9)),
    ...     policy=PolicySource("POWER"),
    ... )
    >>> session.run().completed_tasks
    3
    """

    platform: PlatformSource
    workload: WorkloadSource
    policy: PolicySource = field(default_factory=PolicySource)
    provisioning: ProvisioningSource | None = None
    timeline: TimelineLike = None
    horizon: float | None = None
    trace_level: str = "full"
    sample_period: float = 1.0
    base_temperature: float = 21.0
    requeue_on_failure: bool = True
    #: Queue backend only: cap the scheduled capacity below the
    #: platform's core count (e.g. replay a trace at its native
    #: ``MaxProcs`` so queues actually form).  ``None`` uses every core.
    queue_cores: int | None = None

    def __post_init__(self) -> None:
        self._resolved_timeline: EventTimeline | None = None
        self._validated = False

    # -- validation ---------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Which execution backend the platform + policy select.

        ``"server-types"`` platforms run the point study; queue-family
        policies (:mod:`repro.policy.queue`) run the batch queue backend
        — except under a ``"served"`` workload, where arrivals are live
        and the policy runs as its per-request placement adapter on the
        middleware stack.
        """
        if self.platform.kind == "server-types":
            return "point"
        if self.policy.resolved_family == "queue" and self.workload.kind != "served":
            return "queue"
        return "middleware"

    def validate(self) -> "LabSession":
        """Check the component combination once; raises :class:`LabError`.

        Returns ``self`` so construction and validation chain.
        """
        if self.trace_level not in TRACE_LEVELS:
            raise LabError(
                f"trace_level must be one of {TRACE_LEVELS}, got {self.trace_level!r}"
            )
        ensure_positive(self.sample_period, "sample_period")
        ensure_finite(self.base_temperature, "base_temperature")
        if self.horizon is not None:
            ensure_positive(self.horizon, "horizon")
        self._resolved_timeline = resolve_timeline(self.timeline)

        if self.queue_cores is not None and self.backend != "queue":
            raise LabError(
                "queue_cores caps the batch queue backend's capacity; it has "
                f"no meaning on the {self.backend!r} backend"
            )
        if self.backend == "point":
            if self.policy.resolved_family == "queue":
                raise LabError(
                    "queue policies run their batch semantics on table1 "
                    "platforms; on server-types, force the placement "
                    "adapter with PolicySource(..., family='plugin')"
                )
            if self.provisioning is not None:
                raise LabError(
                    "the single-task point study has no provisioning axis; "
                    "use a table1 platform to compose provisioning"
                )
            if self.workload.kind not in ("point-load", "trace"):
                raise LabError(
                    f"server-types platforms take 'point-load' or 'trace' "
                    f"workloads, not {self.workload.kind!r}"
                )
            if self.horizon is not None:
                raise LabError(
                    "the point study runs to workload completion; drop horizon"
                )
        elif self.backend == "queue":
            if not self.workload.open_loop:
                raise LabError(
                    "the queue backend schedules a pre-computed job stream: "
                    "use a generator or trace workload, not "
                    f"{self.workload.kind!r} (or force the per-request "
                    "adapter with PolicySource(..., family='plugin'))"
                )
            if self.provisioning is not None:
                raise LabError(
                    "the queue backend has no provisioning axis: capacity "
                    "changes come from NodeFailure/NodeRecovery timeline "
                    "events"
                )
            if self.policy.seed is not None or self.policy.preference is not None:
                raise LabError(
                    "queue policies are deterministic and preference-free; "
                    "drop seed/preference from the PolicySource"
                )
            if self.queue_cores is not None and self.queue_cores < 1:
                raise LabError(f"queue_cores must be >= 1, got {self.queue_cores}")
        else:
            if self.workload.kind == "point-load":
                raise LabError(
                    "'point-load' workloads belong to server-types platforms; "
                    "use a generator, trace or capacity workload on table1"
                )
            if self.workload.kind == "served":
                if self.provisioning is not None:
                    raise LabError(
                        "served sessions take no provisioning: the planner's "
                        "periodic checks would interleave with live arrivals "
                        "on a schedule no client controls"
                    )
                if self.horizon is not None:
                    raise LabError(
                        "served sessions have no horizon; the daemon runs "
                        "until it is asked to shut down"
                    )
            if self.workload.kind == "capacity":
                if self.provisioning is None:
                    raise LabError(
                        "the capacity client tops requests up to the candidate "
                        "pool; it requires a ProvisioningSource"
                    )
            if self.provisioning is not None and self.horizon is None:
                raise LabError(
                    "provisioned sessions need a finite horizon: the planner "
                    "re-checks forever, so the run would never terminate"
                )
        self._validated = True
        return self

    # -- execution ----------------------------------------------------------------------
    def run(self) -> LabResult:
        """Validate, assemble and execute the session."""
        if not self._validated:
            self.validate()
        if self.workload.kind == "served":
            raise LabError(
                "served sessions do not run to completion; open them with "
                "open_state() and drive them over the wire"
            )
        if self.backend == "point":
            return self._run_point_study()
        if self.backend == "queue":
            return self._run_queue()
        return self._run_middleware()

    # -- serving backend ----------------------------------------------------------------
    def open_state(self):
        """Assemble the session as resident serving state.

        Only ``"served"`` workloads open; the stack (platform, hierarchy,
        engine, energy accountant, applied timeline) is exactly the one
        :meth:`run` would assemble, minus the workload — requests arrive
        through :meth:`~repro.serve.state.ServeState.place_batch`.
        ``repro.serve`` is imported lazily so batch experiments never
        load the serving layer.
        """
        if not self._validated:
            self.validate()
        if self.workload.kind != "served":
            raise LabError(
                f"only 'served' workloads open as a service, not "
                f"{self.workload.kind!r}; use WorkloadSource.served()"
            )
        from repro.middleware.sed import WILDCARD_SERVICE
        from repro.serve.state import ServeState

        simulation, *_ = self._assemble_middleware(services=(WILDCARD_SERVICE,))
        return ServeState(simulation)

    # -- middleware backend -------------------------------------------------------------
    def _assemble_middleware(self, *, services: Sequence[str] | None = None):
        """The driver over platform and hierarchy, with the timeline applied.

        Returns ``(simulation, tasks, electricity, thermal)``: the open-loop
        tasks (``None`` otherwise) and the timeline's price and thermal
        models (``None`` without timeline or provisioning).  The SeDs offer
        ``services``, or, when ``None``, every service the workload
        requests (served sessions pass the wildcard: their requests are
        not known yet).
        """
        timeline = self._resolved_timeline
        scheduler = self.policy.build()
        platform = self.platform.build_platform()
        tasks: tuple[Task, ...] | None = None
        if self.workload.open_loop:
            tasks = self.workload.resolve_tasks(platform.total_cores)
        master, seds = build_hierarchy(
            platform, scheduler=scheduler, services=services, workload=tasks
        )
        simulation = MiddlewareSimulation(
            platform,
            master,
            seds,
            sample_period=self.sample_period,
            policy_name=scheduler.name,
            trace_level=self.trace_level,
        )
        electricity = thermal = None
        if self.provisioning is not None or timeline is not None:
            electricity, thermal, _ = apply_timeline(
                simulation,
                timeline if timeline is not None else EventTimeline(),
                base_temperature=self.base_temperature,
                requeue=self.requeue_on_failure,
            )
        return simulation, tasks, electricity, thermal

    def _run_middleware(self) -> LabResult:
        timeline = self._resolved_timeline
        simulation, tasks, electricity, thermal = self._assemble_middleware()
        platform = simulation.platform
        planner = None
        if self.provisioning is not None:
            planner = ProvisioningPlanner(
                platform,
                simulation.master,
                electricity,
                thermal,
                seds=simulation.seds,
                engine=simulation.engine,
                trace=simulation.trace if self.trace_level == "full" else None,
                config=self.provisioning,
            )
            planner.install()
            planner.start()

        if self.workload.kind == "capacity":
            self._start_capacity_client(simulation, platform, planner, timeline)
        else:
            simulation.submit_workload(tasks)
        result = simulation.run(until=self.horizon)

        energy_log = simulation.energy_log
        if planner is not None:
            duration = self.horizon
            candidate_series = planner.candidate_history()
            metrics = provisioned_metrics(
                duration=duration,
                total_energy=energy_log.total_energy,
                completed_tasks=result.metrics.task_count,
                final_candidates=int(series_value_at(candidate_series, duration)),
                events_processed=result.events_processed,
                failed_tasks=result.failed_tasks,
                rejected_tasks=result.rejected_tasks,
            )
            return LabResult(
                backend="middleware",
                metrics=metrics,
                detail={
                    "candidate_series": [
                        [time, count] for time, count in candidate_series
                    ],
                },
                simulation=result,
                timeline=timeline,
                candidate_series=candidate_series,
                power_series=windowed_power(
                    energy_log, window=planner.config.check_period, duration=duration
                ),
                planning_entries=tuple(planner.planning_entries),
                total_nodes=len(platform),
                horizon=self.horizon,
            )
        return LabResult(
            backend="middleware",
            metrics=middleware_metrics(result, include_faults=timeline is not None),
            detail=middleware_detail(result),
            simulation=result,
            timeline=timeline,
            total_nodes=len(platform),
            horizon=self.horizon,
        )

    def _start_capacity_client(
        self,
        simulation: MiddlewareSimulation,
        platform,
        planner,
        timeline: EventTimeline | None,
    ) -> None:
        """The adaptive experiment's closed-loop client.

        Every tick, the in-flight request count is topped up to the
        capacity (cores) of the current candidate nodes, stopping new
        submissions shortly before the horizon so the last tasks can
        complete within the observation window.
        """
        workload = self.workload
        submission_deadline = self.horizon - planner.config.check_period

        def _capacity() -> int:
            total = 0
            for name in planner.candidate_nodes:
                node = platform.node(name)
                if node.is_available:
                    total += node.spec.cores
            return max(total, 1)

        def _client_tick() -> None:
            now = simulation.engine.now
            if now <= submission_deadline:
                target = _capacity()
                multiplier = (
                    timeline.arrival_multiplier(now) if timeline is not None else 1.0
                )
                if multiplier != 1.0:
                    # Bursts scale the closed-loop pressure target; the
                    # equality guard keeps burst-free runs (Figure 9)
                    # bit-identical to the historical inline-event path.
                    target = max(1, round(target * multiplier))
                deficit = target - simulation.in_flight_tasks
                for _ in range(max(deficit, 0)):
                    simulation.inject_task(
                        Task(
                            flop=workload.task_flop,
                            arrival_time=now,
                            client="adaptive-client",
                        )
                    )
                simulation.engine.schedule_in(
                    workload.client_tick, _client_tick, label="client-tick"
                )

        simulation.engine.schedule(0.0, _client_tick, label="client-tick")

    # -- queue backend ------------------------------------------------------------------
    def _run_queue(self) -> LabResult:
        """Batch scheduling of an open-loop workload by a queue policy.

        The platform aggregates into one capacity (optionally capped by
        ``queue_cores``); tasks become :class:`~repro.policy.queue.jobs.QueueJob`
        records by inverting the flop model at the SWF mapping's
        reference core speed, so trace-derived jobs recover their real
        runtimes and requested wall limits.  ``NodeFailure`` /
        ``NodeRecovery`` timeline events become capacity drops/returns
        sized by the named node's cores; the simulator replans each
        pass, so a crash invalidates reservations and displaced jobs
        follow the same requeue-or-fail rule as the middleware driver.
        ``repro.policy.queue`` is imported lazily, mirroring how the
        serving layer stays out of batch runs.
        """
        from repro.policy.queue.jobs import jobs_from_tasks
        from repro.policy.queue.policies import queue_policy_by_name
        from repro.policy.queue.simulator import run_queue_simulation
        from repro.workload.ingest.mapping import DEFAULT_FLOPS_PER_CORE

        timeline = self._resolved_timeline
        platform = self.platform.build_platform()
        capacity = (
            self.queue_cores if self.queue_cores is not None else platform.total_cores
        )
        tasks = self.workload.resolve_tasks(capacity)
        jobs = jobs_from_tasks(tasks, flops_per_core=DEFAULT_FLOPS_PER_CORE)
        capacity_events: list[tuple[float, int]] = []
        if timeline is not None:
            for event in timeline.node_events:
                cores = platform.node(event.node).spec.cores
                if isinstance(event, NodeFailure):
                    capacity_events.append((event.time, -cores))
                elif isinstance(event, NodeRecovery):
                    capacity_events.append((event.time, cores))
        schedule = run_queue_simulation(
            jobs,
            capacity=capacity,
            policy=queue_policy_by_name(self.policy.name),
            capacity_events=capacity_events,
            horizon=self.horizon,
            requeue_limit=1 if self.requeue_on_failure else 0,
        )
        total_cores = platform.total_cores
        idle_per_core = (
            sum(node.spec.idle_power for node in platform.nodes) / total_cores
        )
        peak_per_core = (
            sum(node.spec.peak_power for node in platform.nodes) / total_cores
        )
        span = self.horizon if self.horizon is not None else schedule.makespan
        total_energy = queue_energy(
            schedule,
            idle_power_per_core=idle_per_core,
            busy_power_delta_per_core=peak_per_core - idle_per_core,
            span=span,
        )
        return LabResult(
            backend="queue",
            metrics=queue_metrics(schedule, total_energy=total_energy),
            detail={
                "policy": schedule.policy_name,
                "capacity": capacity,
                "outcomes": dict(schedule.counts),
                "capacity_steps": [list(step) for step in schedule.capacity_steps],
            },
            queue=schedule,
            timeline=timeline,
            total_nodes=len(platform),
            horizon=self.horizon,
        )

    # -- point backend ------------------------------------------------------------------
    def _run_point_study(self) -> LabResult:
        timeline = self._resolved_timeline
        scheduler = self.policy.build()
        servers: list[_SimServer] = []
        for spec in self.platform.server_specs():
            for index in range(self.platform.servers_per_type):
                servers.append(
                    _SimServer(
                        name=f"{spec.cluster}-{index}",
                        kind=spec.cluster,
                        flops=spec.flops_per_core,
                        peak_power=spec.peak_power,
                    )
                )
        windows = _availability_windows(timeline)

        def _free(server: _SimServer, now: float) -> bool:
            """Whether the server is idle and not failed at ``now``."""
            return (
                server.busy_until <= now
                and _next_available(windows.get(server.name, ()), now) == now
            )

        def _ready_time(server: _SimServer, now: float) -> float:
            """Earliest instant >= ``now`` the server could accept a task."""
            return _next_available(
                windows.get(server.name, ()), max(now, server.busy_until)
            )

        energies: list[float] = []
        durations: list[float] = []
        tasks_per_type: dict[str, int] = {}
        makespan = 0.0

        # A free point server always reads FREE_CORES 1 and WAITING_TIME 0,
        # and only free servers are candidates, so the static fleet's
        # entries are built once (at t = 0, when every server is free).
        # A rank_key policy's order is then fixed for the whole run; a
        # score_keys policy keeps its score_inputs rows and elects the least
        # key; any other policy sorts.
        entries = {
            server.name: CandidateEntry.from_vector(server.estimation(0.0))
            for server in servers
        }
        server_by_name = {server.name: server for server in servers}
        order = rows = None
        if scheduler.rank_key is not None:
            order = sorted(
                servers, key=lambda server: scheduler.rank_key(entries[server.name])
            )
        elif scheduler.score_keys is not None:
            rows = {name: scheduler.score_inputs(entry) for name, entry in entries.items()}

        def _elect(request: ServiceRequest, now: float) -> _SimServer:
            """The free server ``scheduler.sort`` ranks first for ``request``."""
            if order is not None:
                return next(server for server in order if _free(server, now))
            free = [server.name for server in servers if _free(server, now)]
            if rows is not None:
                present = [rows[name] for name in free]
                head = present[min(scheduler.score_keys(request, present))[-1]][0]
            else:
                head = scheduler.sort(request, [entries[name] for name in free])[0]
            return server_by_name[head.server]

        phase_timer = phases.active_timer()

        def _execute(task: Task, now: float) -> float:
            nonlocal makespan
            request = ServiceRequest.from_task(task)
            if phase_timer is not None:
                phase_timer.push("scoring")
            server = _elect(request, now)
            if phase_timer is not None:
                phase_timer.pop()
            duration = task.flop / server.flops
            energy = server.peak_power * duration
            server.busy_until = now + duration
            energies.append(energy)
            durations.append(duration)
            tasks_per_type[server.kind] = tasks_per_type.get(server.kind, 0) + 1
            makespan = max(makespan, now + duration)
            return duration

        def _earliest_ready(now: float) -> float:
            ready_at = min(_ready_time(server, now) for server in servers)
            if not math.isfinite(ready_at):
                raise LabError(
                    "every server is failed with no recovery in the timeline; "
                    "the point study cannot make progress"
                )
            return ready_at

        if self.workload.kind == "trace":
            # Open-loop replay: tasks start in arrival order, each on the
            # earliest instant a server is both idle and not failed.
            for task in self.workload.resolve_tasks():
                now = task.arrival_time
                while not any(_free(server, now) for server in servers):
                    now = _earliest_ready(now)
                _execute(task, now)
        else:
            # Closed loop: each client keeps exactly one request in
            # flight; the next submission happens when the previous task
            # completes.  A heap of (ready_time, client_id) keeps the
            # interleaving deterministic.
            clients = self.workload.clients
            ready: list[tuple[float, int]] = [(0.0, client) for client in range(clients)]
            heapq.heapify(ready)
            remaining = {client: self.workload.tasks_per_client for client in range(clients)}
            while ready:
                now, client = heapq.heappop(ready)
                if remaining[client] <= 0:
                    continue
                if not any(_free(server, now) for server in servers):
                    # No server available: wait until the earliest one frees up.
                    heapq.heappush(ready, (_earliest_ready(now), client))
                    continue
                task = Task(
                    flop=self.workload.task_flop,
                    arrival_time=now,
                    client=f"client-{client}",
                )
                duration = _execute(task, now)
                remaining[client] -= 1
                if remaining[client] > 0:
                    heapq.heappush(ready, (now + duration, client))

        point = PointSummary.from_executions(
            policy=scheduler.name,
            energies=energies,
            durations=durations,
            tasks_per_type=tasks_per_type,
            makespan=makespan,
        )
        return LabResult(
            backend="point",
            metrics=point_summary_metrics(point),
            detail={"tasks_per_type": dict(point.tasks_per_type)},
            point=point,
            timeline=timeline,
            total_nodes=len(servers),
        )


@dataclass
class _SimServer:
    """One single-task server of the point-study closed-loop simulation."""

    name: str
    kind: str
    flops: float
    peak_power: float
    busy_until: float = 0.0

    def estimation(self, now: float) -> EstimationVector:
        """Static estimation vector: peak power and nameplate performance."""
        free = now >= self.busy_until
        vector = EstimationVector(server=self.name, cluster=self.kind)
        vector.set(EstimationTags.FLOPS_PER_CORE, self.flops)
        vector.set(EstimationTags.TOTAL_FLOPS, self.flops)
        vector.set(EstimationTags.FREE_CORES, 1.0 if free else 0.0)
        vector.set(EstimationTags.TOTAL_CORES, 1.0)
        vector.set(EstimationTags.WAITING_TIME, max(self.busy_until - now, 0.0))
        vector.set(EstimationTags.MEAN_POWER, self.peak_power)
        vector.set(EstimationTags.IDLE_POWER, self.peak_power)
        vector.set(EstimationTags.PEAK_POWER, self.peak_power)
        vector.set(EstimationTags.BOOT_POWER, 0.0)
        vector.set(EstimationTags.BOOT_TIME, 0.0)
        vector.set(EstimationTags.NODE_AVAILABLE, 1.0)
        return vector


def _availability_windows(
    timeline: EventTimeline | None,
) -> Mapping[str, tuple[tuple[float, float], ...]]:
    """Per-node ``[failed_at, repaired_at)`` windows of a timeline.

    A failure never repaired yields an infinite window.  The timeline's
    crash/repair protocol (enforced at construction) guarantees windows
    are well-nested per node.
    """
    if timeline is None:
        return {}
    open_at: dict[str, float] = {}
    windows: dict[str, list[tuple[float, float]]] = {}
    for event in timeline.node_events:
        if isinstance(event, NodeFailure):
            open_at[event.node] = event.time
        elif isinstance(event, NodeRecovery):
            windows.setdefault(event.node, []).append(
                (open_at.pop(event.node), event.time)
            )
    for node, start in open_at.items():
        windows.setdefault(node, []).append((start, math.inf))
    return {node: tuple(sorted(spans)) for node, spans in windows.items()}


def _next_available(
    windows: Sequence[tuple[float, float]], time: float
) -> float:
    """The earliest instant >= ``time`` outside every failure window.

    >>> _next_available(((60.0, 120.0),), 90.0)
    120.0
    >>> _next_available((), 90.0)
    90.0
    """
    for start, end in windows:
        if start <= time < end:
            time = end
    return time
