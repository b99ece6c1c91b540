"""Simulation driver gluing the middleware to the platform.

Experiments do not build this driver by hand: :mod:`repro.lab` is the
assembly layer that composes a platform, a workload, a policy, optional
provisioning and an optional event timeline into one
:class:`MiddlewareSimulation` and runs it.

:class:`MiddlewareSimulation` executes a workload through the full
scheduling pipeline of the paper:

* request arrivals are events on the discrete-event engine;
* each arrival is propagated through the Master Agent, which returns the
  elected SeD (Section III-A, steps 1–4);
* the task is placed in the elected SeD's queue and starts as soon as a
  core is free on that node (step 5);
* completions feed the SeD's dynamic power estimate, the execution trace
  and the metrics collector;
* an event-driven :class:`~repro.infrastructure.energy.EnergyAccountant`
  integrates every node's piecewise-constant power into the ground-truth
  energy figures reported in Table II and Figure 5.

Energy accounting
-----------------
Every simulation has an accountant.  Its segment log reproduces the
seed wattmeter's 1 Hz left-Riemann figures exactly (the reading of the
paper's Grid'5000 wattmeters), in O(state-changes) time and memory.
Tests check those figures against a 1 Hz polling meter
(``tests/wattmeter.py``) advanced beside a stepped engine, and against
the analytic integral of the logged segments.

Tracing
-------
``trace_level="full"`` (default) records the four lifecycle events of
every task on :attr:`MiddlewareSimulation.trace`.  Sweep workers pass
``trace_level="off"``: million-task replays would otherwise allocate four
dict-payload trace events per task that nothing in the sweep path reads
(debug labels on engine events are skipped too).

Energy attribution
------------------
Each completed task records the node-level power observed when it started
(the quantity the paper's dynamic GreenPerf estimation averages) and a
per-core share of that power integrated over its duration as its marginal
energy.  Platform-level energy totals always come from the accountant, so
attribution choices cannot bias the headline results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.infrastructure.energy import EnergyAccountant, SegmentEnergyLog
from repro.infrastructure.node import NodeState
from repro.infrastructure.platform import Platform
from repro.middleware.agents import MasterAgent
from repro.middleware.requests import SchedulingOutcome, ServiceRequest
from repro.middleware.sed import ServerDaemon
from repro.simulation.engine import ScheduledEvent, SimulationEngine
from repro.simulation.metrics import ExperimentMetrics, MetricsCollector
from repro.simulation.task import Task, TaskExecution, TaskState
from repro.simulation.trace import ExecutionTrace
from repro.util import phases

#: Valid values of ``MiddlewareSimulation(trace_level=...)``.
TRACE_LEVELS = ("full", "off")


@dataclass(frozen=True)
class SimulationResult:
    """Everything produced by one simulation run."""

    metrics: ExperimentMetrics
    trace: ExecutionTrace
    energy_by_cluster: Mapping[str, float]
    energy_by_node: Mapping[str, float]
    rejected_tasks: int
    events_processed: int = 0
    failed_tasks: int = 0

    @property
    def makespan(self) -> float:
        """Convenience accessor for the run's makespan (s)."""
        return self.metrics.makespan

    @property
    def total_energy(self) -> float:
        """Convenience accessor for the run's total energy (J)."""
        return self.metrics.total_energy


class MiddlewareSimulation:
    """Drives a workload through the middleware onto a platform."""

    def __init__(
        self,
        platform: Platform,
        master: MasterAgent,
        seds: Mapping[str, ServerDaemon],
        *,
        sample_period: float = 1.0,
        policy_name: str | None = None,
        trace_level: str = "full",
    ) -> None:
        if trace_level not in TRACE_LEVELS:
            raise ValueError(
                f"trace_level must be one of {TRACE_LEVELS}, got {trace_level!r}"
            )
        self.platform = platform
        self.master = master
        self.seds = dict(seds)
        #: Per-phase profiling hook: the process-wide active timer (set by
        #: ``repro sweep --profile``); ``None`` disables attribution.
        self.phase_timer = phases.active_timer()
        master.phase_timer = self.phase_timer
        self.engine = SimulationEngine()
        self.trace = ExecutionTrace()
        self._trace_on = trace_level == "full"
        self.metrics = MetricsCollector(
            policy=policy_name or master.scheduler.name
        )
        self.accountant = EnergyAccountant(
            platform.nodes,
            # ``engine.now`` without a lambda frame per transition.
            clock=functools.partial(getattr, self.engine, "now"),
            sample_period=sample_period,
            phase_timer=self.phase_timer,
        )
        self._rejected = 0
        self._failed = 0
        self._submitted = 0
        self._pending_completions = 0
        #: Per-SeD map of running tasks to their completion events, so a
        #: node crash can cancel exactly the completions it invalidates.
        self._inflight: dict[ServerDaemon, dict[int, tuple[ScheduledEvent, Task]]] = {
            sed: {} for sed in self.seds.values()
        }

    @property
    def energy_log(self) -> SegmentEnergyLog:
        """The accountant's segment log."""
        return self.accountant.log

    @property
    def trace_on(self) -> bool:
        """Whether this run traces (``trace_level="full"``): lifecycle records and event labels."""
        return self._trace_on

    # -- workload submission -------------------------------------------------------
    def submit_workload(self, tasks: Sequence[Task]) -> None:
        """Schedule the arrival of every task in ``tasks``.

        Consecutive tasks sharing an arrival time are folded into one
        batched engine event (:meth:`SimulationEngine.schedule_many`): a
        burst of arrivals at one instant costs a single heap pop instead
        of one per task, while firing order, event counts and scheduling
        decisions stay identical to per-task scheduling.
        """
        trace_on = self._trace_on
        schedule = self.engine.schedule
        schedule_many = self.engine.schedule_many
        handle_arrival = self._handle_arrival

        def flush(group: list[Task]) -> None:
            if len(group) == 1:
                task = group[0]
                schedule(
                    task.arrival_time,
                    handle_arrival,
                    args=(task,),
                    label=f"arrival-{task.task_id}" if trace_on else "",
                )
            else:
                schedule_many(
                    group[0].arrival_time,
                    handle_arrival,
                    group,
                    label=f"arrivals-x{len(group)}" if trace_on else "",
                )

        group: list[Task] = []
        for task in tasks:
            if group and task.arrival_time != group[0].arrival_time:
                flush(group)
                group = []
            group.append(task)
        if group:
            flush(group)

    def inject_task(self, task: Task) -> SchedulingOutcome:
        """Submit ``task`` immediately (at the engine's current time).

        Used by closed-loop clients that decide on-the-fly how many
        requests to keep in flight (the adaptive-provisioning experiment)
        and by the live placement service (:mod:`repro.serve`), which
        needs the returned outcome to answer its caller.
        """
        return self._handle_arrival(task)

    # -- event handlers ----------------------------------------------------------------
    def _handle_arrival(self, task: Task) -> SchedulingOutcome:
        now = self.engine.now
        self._submitted += 1
        task.state = TaskState.SUBMITTED
        if self._trace_on:
            self.trace.record(
                now,
                ExecutionTrace.TASK_SUBMITTED,
                task_id=task.task_id,
                client=task.client,
            )
        outcome = self.master.submit(ServiceRequest.from_task(task, submitted_at=now))
        self._handle_outcome(task, outcome, now)
        return outcome

    def _handle_outcome(self, task: Task, outcome: SchedulingOutcome, now: float) -> None:
        if not outcome.succeeded:
            task.state = TaskState.REJECTED
            self._rejected += 1
            if self._trace_on:
                self.trace.record(
                    now, ExecutionTrace.TASK_REJECTED, task_id=task.task_id
                )
            return
        sed = self.seds[outcome.elected]
        if self._trace_on:
            self.trace.record(
                now,
                ExecutionTrace.TASK_SCHEDULED,
                task_id=task.task_id,
                node=sed.name,
                cluster=sed.cluster,
            )
        queue = sed.queue
        if not queue.pending_count and sed.node.free_cores > 0:
            # Enqueue-then-pop would leave the queue as it is: start directly.
            self._start_task(sed, task, now)
            return
        task.state = TaskState.QUEUED
        queue.enqueue(task)
        self._try_start(sed, now)

    def _try_start(self, sed: ServerDaemon, now: float) -> None:
        """Start as many queued tasks as the node has free cores.

        ``free_cores`` is 0 on a node that is not ON, so this also waits
        for a booting or failed node.
        """
        node = sed.node
        while node.free_cores > 0:
            task = sed.queue.pop_next()
            if task is None:
                return
            self._start_task(sed, task, now)

    def _start_task(self, sed: ServerDaemon, task: Task, now: float) -> None:
        node = sed.node
        node.acquire_core()
        sed.queue.mark_running(task)
        task.state = TaskState.RUNNING
        duration = task.duration_on(node.spec.flops_per_core)
        node_power = node.current_power()
        args = (sed, task, task.arrival_time, now, node_power)
        if self._trace_on:
            self.trace.record(
                now,
                ExecutionTrace.TASK_STARTED,
                task_id=task.task_id,
                node=node.name,
                cluster=node.cluster,
                duration=duration,
            )
            # The per-core share of the node's draw: only the completion
            # record's ``energy`` detail reads it.
            args += (node_power / max(node.busy_cores, 1),)
        completion = self.engine.schedule(
            now + duration,
            self._complete_task,
            args=args,
            label=f"completion-{task.task_id}" if self._trace_on else "",
        )
        self._inflight[sed][task.task_id] = (completion, task)
        self._pending_completions += 1

    def _complete_task(
        self,
        sed: ServerDaemon,
        task: Task,
        submitted_at: float,
        started_at: float,
        node_power: float,
        attributed_power: float = 0.0,
    ) -> None:
        now = self.engine.now
        node = sed.node
        spec = node.spec
        duration = now - started_at
        node.release_core(busy_seconds=duration)
        sed.queue.mark_completed(task)
        del self._inflight[sed][task.task_id]
        task.state = TaskState.COMPLETED
        sed.record_request_power(node_power)
        execution = TaskExecution(
            task_id=task.task_id,
            node=spec.name,
            cluster=spec.cluster,
            submitted_at=submitted_at,
            started_at=started_at,
            completed_at=now,
        )
        self.metrics.record_execution(execution)
        if self._trace_on:
            self.trace.record(
                now,
                ExecutionTrace.TASK_COMPLETED,
                task_id=task.task_id,
                node=spec.name,
                cluster=spec.cluster,
                duration=duration,
                energy=attributed_power * duration,
            )
        self._pending_completions -= 1
        self._try_start(sed, now)

    # -- fault injection ---------------------------------------------------------------
    def fail_node(self, name: str, *, requeue: bool = True) -> int:
        """Crash node ``name`` at the engine's current time.

        The crash is atomic from the simulation's point of view:

        * every in-flight completion on the node is cancelled (the work is
          lost — a crashed task contributes no execution record);
        * the node's open power segment is closed at the crash instant by
          the power-listener notification, and the node draws nothing
          until :meth:`recover_node`;
        * in-flight and queued tasks are *displaced*: with
          ``requeue=True`` (default) each goes back through the Master
          Agent — the failed node is no longer electable, so the task
          lands on a surviving node or is rejected when none can serve
          it; with ``requeue=False`` displaced tasks are marked
          ``FAILED`` and counted in :attr:`failed_tasks`.

        Returns the number of displaced tasks.  Failing an
        already-failed node is a no-op returning 0.
        """
        node = self.platform.node(name)
        if node.state is NodeState.FAILED:
            return 0
        now = self.engine.now
        sed = self.seds.get(name)
        displaced: list[Task] = []
        inflight = self._inflight.get(sed)
        if inflight:
            for completion, task in inflight.values():
                completion.cancel()
                self._pending_completions -= 1
                if sed is not None:
                    sed.queue.forget_running(task)
                displaced.append(task)
            inflight.clear()
        node.fail(now=now)
        if sed is not None:
            displaced.extend(sed.queue.drain_pending())
        if self._trace_on:
            self.trace.record(
                now, ExecutionTrace.NODE_FAILED, node=name, displaced=len(displaced)
            )
        for task in displaced:
            self._handle_displaced(task, failed_node=name, requeue=requeue)
        return len(displaced)

    def recover_node(self, name: str) -> None:
        """Repair node ``name``: back to ON with all cores idle.

        Idempotent — recovering a node that is not failed does nothing, so
        a recovery event racing a provisioning power-off stays harmless.
        """
        node = self.platform.node(name)
        if node.state is not NodeState.FAILED:
            return
        node.repair()
        if self._trace_on:
            self.trace.record(self.engine.now, ExecutionTrace.NODE_RECOVERED, node=name)
        sed = self.seds.get(name)
        if sed is not None:
            self._try_start(sed, self.engine.now)

    def _handle_displaced(self, task: Task, *, failed_node: str, requeue: bool) -> None:
        now = self.engine.now
        if not requeue:
            task.state = TaskState.FAILED
            self._failed += 1
            if self._trace_on:
                self.trace.record(
                    now, ExecutionTrace.TASK_FAILED, task_id=task.task_id, node=failed_node
                )
            return
        task.state = TaskState.SUBMITTED
        if self._trace_on:
            self.trace.record(
                now,
                ExecutionTrace.TASK_REQUEUED,
                task_id=task.task_id,
                failed_node=failed_node,
            )
        outcome = self.master.submit(ServiceRequest.from_task(task, submitted_at=now))
        self._handle_outcome(task, outcome, now)

    def close(self) -> None:
        """Detach the energy accountant's power listeners from the nodes.

        A simulation subscribes to every node at construction time.  All
        in-repo experiments build a fresh platform per run, so the
        subscription's lifetime matches the platform's; call ``close()``
        when *reusing* one platform across several simulations, so a
        finished simulation's accountant neither pays a callback per
        transition nor mis-stamps segments with its stale clock.
        Idempotent; figures accounted so far stay queryable.
        """
        self.accountant.close(self.engine.now)

    # -- execution ------------------------------------------------------------------------
    def run(self, *, until: float | None = None) -> SimulationResult:
        """Run the simulation to completion (or ``until``) and summarise it."""
        timer = self.phase_timer
        if timer is not None:
            # Engine time not claimed by a narrower phase (estimation,
            # scoring, energy) books to "dispatch".
            timer.push("dispatch")
        try:
            self.engine.run(until=until)
        finally:
            if timer is not None:
                timer.pop()
        if not self.accountant.closed:
            self.accountant.sync(self.engine.now)
        energy_log = self.energy_log
        return SimulationResult(
            metrics=self.metrics.summarize(energy_log),
            trace=self.trace,
            energy_by_cluster=dict(energy_log.energy_by_cluster()),
            energy_by_node=dict(energy_log.energy_by_node()),
            rejected_tasks=self._rejected,
            events_processed=self.engine.processed_events,
            failed_tasks=self._failed,
        )

    # -- introspection -----------------------------------------------------------------------
    @property
    def rejected_tasks(self) -> int:
        """Number of tasks rejected because no SeD could serve them."""
        return self._rejected

    @property
    def failed_tasks(self) -> int:
        """Tasks lost to node crashes under ``requeue=False`` semantics."""
        return self._failed

    @property
    def submitted_tasks(self) -> int:
        """Number of task arrivals handled so far (requeues not re-counted)."""
        return self._submitted

    @property
    def in_flight_tasks(self) -> int:
        """Submitted tasks not yet completed, rejected or failed.

        This is the pressure figure closed-loop clients regulate on (the
        adaptive experiment's capacity client tops it up to the candidate
        pool's core count every tick).
        """
        return (
            self._submitted
            - self.metrics.task_count
            - self._rejected
            - self._failed
        )

    @property
    def running_tasks(self) -> int:
        """Number of tasks currently executing."""
        return self._pending_completions
