"""Span tracer for the per-layer table, installed from outside ``src/``.

The benchmark never edits the program it measures: :func:`install`
replaces public functions of each ``repro`` layer with timing wrappers,
in the process that runs the workload, before that process builds
anything.  A wrapper records a *span*: its call count and its self time,
which is the span's duration minus the time its child spans covered.
Self times therefore never double count, and the self times of every
span plus the time no span covered (``unattributed_s``) add up to the
traced wall time.

:data:`SPANS` is the layer table: each span names the ``src/repro``
module it wraps, the end-to-end metric a change to that layer should
move and the workload on which it should move it.  Coroutine functions
(``protocol.read_request``) are timed per resumption, so time the
coroutine spends suspended on the socket is not booked to it.

Tracing is off unless ``Tracer.active`` is set; a forked child (a sweep
pool worker) switches it off for itself, because its spans could not be
collected.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One row of the layer table."""

    name: str
    layer: str
    targets: tuple[str, ...]
    moves: str
    on: str


#: Every traced span: ``module:Qualified.name`` targets, the end-to-end
#: metric the layer should move and the workload it should move it on.
SPANS: tuple[Span, ...] = (
    Span("engine.schedule", "simulation.engine",
         ("repro.simulation.engine:SimulationEngine.schedule",
          "repro.simulation.engine:SimulationEngine.schedule_many"),
         "throughput_per_s", "fleet-steady"),
    Span("engine.step", "simulation.engine",
         ("repro.simulation.engine:SimulationEngine.step",),
         "throughput_per_s", "fleet-steady"),
    Span("election", "middleware.agents",
         ("repro.middleware.agents:MasterAgent.submit",),
         "throughput_per_s", "greenscore-walk"),
    Span("ranking.refresh", "middleware.ranking",
         ("repro.middleware.ranking:ResidentRanking.refresh",),
         "throughput_per_s", "fleet-steady"),
    Span("sed.estimate", "middleware.sed",
         ("repro.middleware.sed:ServerDaemon.estimate",),
         "throughput_per_s", "greenscore-walk"),
    Span("policy.sort", "core.policies",
         ("repro.core.policies:PowerPolicy.sort",
          "repro.core.policies:PerformancePolicy.sort",
          "repro.core.policies:RandomPolicy.sort",
          "repro.core.policies:GreenPerfPolicy.sort",
          "repro.core.policies:GreenSchedulerPolicy.sort",
          "repro.middleware.plugin_scheduler:FirstComeFirstServedScheduler.sort",
          "repro.middleware.queue_adapter:QueuePlacementAdapter.sort"),
         "throughput_per_s", "greenscore-walk"),
    Span("queue.op", "simulation.queueing",
         ("repro.simulation.queueing:NodeQueue.enqueue",
          "repro.simulation.queueing:NodeQueue.pop_next",
          "repro.simulation.queueing:NodeQueue.mark_running",
          "repro.simulation.queueing:NodeQueue.mark_completed",
          "repro.simulation.queueing:NodeQueue.forget_running",
          "repro.simulation.queueing:NodeQueue.drain_pending"),
         "throughput_per_s", "fleet-steady"),
    Span("node.transition", "infrastructure.node",
         ("repro.infrastructure.node:Node.acquire_core",
          "repro.infrastructure.node:Node.release_core",
          "repro.infrastructure.node:Node.fail",
          "repro.infrastructure.node:Node.repair",
          "repro.infrastructure.node:Node.begin_boot",
          "repro.infrastructure.node:Node.complete_boot",
          "repro.infrastructure.node:Node.power_off"),
         "throughput_per_s", "fleet-steady"),
    Span("energy.add_segment", "infrastructure.energy",
         ("repro.infrastructure.energy:SegmentEnergyLog.add_segment",),
         "throughput_per_s", "fleet-steady"),
    Span("metrics.record", "simulation.metrics",
         ("repro.simulation.metrics:MetricsCollector.record_execution",),
         "throughput_per_s", "fleet-steady"),
    Span("metrics.summarize", "simulation.metrics",
         ("repro.simulation.metrics:MetricsCollector.summarize",),
         "latency_ms", "fleet-steady"),
    Span("driver.submit_workload", "middleware.driver",
         ("repro.middleware.driver:MiddlewareSimulation.submit_workload",),
         "latency_ms", "fleet-steady"),
    Span("driver.run", "middleware.driver",
         ("repro.middleware.driver:MiddlewareSimulation.run",),
         "latency_ms", "fleet-steady"),
    Span("driver.fault", "middleware.driver",
         ("repro.middleware.driver:MiddlewareSimulation.fail_node",
          "repro.middleware.driver:MiddlewareSimulation.recover_node"),
         "throughput_per_s", "storm-adaptive"),
    Span("provisioning.check", "core.provisioning",
         ("repro.core.provisioning:ProvisioningPlanner.check",),
         "throughput_per_s", "storm-adaptive"),
    Span("workload.ingest", "workload.traces",
         ("repro.workload.traces:save_trace",
          "repro.workload.traces:TraceWorkload.from_file",
          "repro.workload.traces:TraceWorkload.generate"),
         "latency_ms", "storm-adaptive"),
    Span("lab.run", "lab.session",
         ("repro.lab.session:LabSession.run",),
         "latency_ms", "storm-adaptive"),
    Span("lab.observe", "lab.observe",
         ("repro.lab.observe:windowed_power",
          "repro.lab.observe:series_value_at",
          "repro.lab.observe:provisioned_metrics",
          "repro.lab.observe:middleware_metrics",
          "repro.lab.observe:middleware_detail",
          "repro.lab.observe:greenperf_metric"),
         "latency_ms", "storm-adaptive"),
    Span("protocol.read_request", "serve.protocol",
         ("repro.serve.protocol:read_request",),
         "latency_ms", "serve-http"),
    Span("protocol.decode", "serve.protocol",
         ("repro.serve.protocol:HttpRequest.json",
          "repro.serve.protocol:SubmitRequest.from_json"),
         "latency_ms", "serve-http"),
    Span("protocol.render_response", "serve.protocol",
         ("repro.serve.protocol:render_response",),
         "latency_ms", "serve-http"),
    Span("admission.admit", "serve.admission",
         ("repro.serve.admission:AdmissionController.admit",),
         "latency_ms", "serve-http"),
    Span("state.place_batch", "serve.state",
         ("repro.serve.state:ServeState.place_batch",),
         "throughput_per_s", "serve-http"),
    Span("serve.loop_idle", "serve.service",
         ("selectors:EpollSelector.select",),
         "latency_ms", "serve-http"),
    Span("spec.build", "runner.spec",
         ("repro.runner.spec:ScenarioSpec.replace",),
         "latency_ms", "sweep-sharded"),
    Span("spec.content_hash", "runner.spec",
         ("repro.runner.spec:ScenarioSpec.content_hash",),
         "latency_ms", "sweep-sharded"),
    Span("store.open", "runner.store",
         ("repro.runner.store:open_store",
          "repro.runner.store:ShardedResultStore.load"),
         "latency_ms", "sweep-sharded"),
    Span("store.get", "runner.store",
         ("repro.runner.store:ShardedResultStore.get",),
         "latency_ms", "sweep-sharded"),
    Span("store.put", "runner.store",
         ("repro.runner.store:ShardedResultStore.put",),
         "throughput_per_s", "sweep-sharded"),
    Span("sweep.run", "runner.executor",
         ("repro.runner.executor:run_scenarios",),
         "throughput_per_s", "sweep-sharded"),
    Span("sweep.pool_submit", "runner.executor",
         ("concurrent.futures:ProcessPoolExecutor.submit",),
         "throughput_per_s", "sweep-sharded"),
    Span("sweep.pool_wait", "runner.executor",
         ("repro.runner.executor:wait",),
         "throughput_per_s", "sweep-sharded"),
)


@dataclass(frozen=True)
class Metric:
    """One per-layer metric of ``BENCHMARK.json`` and what it should move."""

    name: str
    unit: str
    better: str
    moves: str
    on: str


#: Per-layer metrics that are not span rows.  ``on="all"`` marks the
#: harness rows every workload reports about itself.
COUNTERS: tuple[Metric, ...] = (
    Metric("election.walk_share", "ratio", "lower", "throughput_per_s", "greenscore-walk"),
    Metric("ranking.dirty_per_refresh", "count", "lower", "throughput_per_s", "fleet-steady"),
    Metric("sed.estimate.hit_share", "ratio", "higher", "throughput_per_s", "greenscore-walk"),
    Metric("serve.batch_size.mean", "count", "higher", "throughput_per_s", "serve-http"),
    Metric("serve.batch_size.max", "count", "higher", "throughput_per_s", "serve-http"),
    Metric("serve.rps_w1", "1/s", "higher", "latency_ms", "serve-http"),
    Metric("serve.p99_ms", "ms", "lower", "latency_ms", "serve-http"),
    Metric("serve.gen_late_ms", "ms", "lower", "latency_ms", "serve-http"),
    Metric("store.bytes_written", "bytes", "lower", "throughput_per_s", "sweep-sharded"),
    Metric("trace.overhead_share", "ratio", "lower", "latency_ms", "all"),
    Metric("trace.wall_s", "s", "lower", "latency_ms", "all"),
    Metric("unattributed_s", "s", "lower", "latency_ms", "all"),
    Metric("micro.engine_ns_per_event", "ns", "lower", "throughput_per_s", "fleet-steady"),
    Metric("micro.ranking_us_per_election", "us", "lower", "throughput_per_s",
           "fleet-steady"),
    Metric("micro.node_ns_per_transition", "ns", "lower", "throughput_per_s", "fleet-steady"),
    Metric("micro.store_us_per_record", "us", "lower", "latency_ms", "sweep-sharded"),
    Metric("micro.protocol_us_per_request", "us", "lower", "latency_ms", "serve-http"),
)

#: Counters only one workload produces; the others report them as 0.
WORKLOAD_COUNTERS = ("serve.rps_w1", "serve.p99_ms", "serve.gen_late_ms", "store.bytes_written")


def per_layer_metrics() -> tuple[Metric, ...]:
    """Every per-layer metric, in ``BENCHMARK.json`` order."""
    rows = []
    for span in SPANS:
        rows.append(Metric(f"{span.name}.calls", "count", "lower", span.moves, span.on))
        rows.append(Metric(f"{span.name}.self_s", "s", "lower", span.moves, span.on))
    return tuple(rows) + COUNTERS


class Tracer:
    """Span statistics of one process: calls, self time, and counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        #: span name -> [calls, self seconds]
        self.spans: dict[str, list] = {span.name: [0, 0.0] for span in SPANS}
        #: Free-form counters read by the derived per-layer ratios.
        self.counts: dict[str, float] = {}
        #: Time covered by outermost spans (the complement of unattributed).
        self.root_s = 0.0
        self._stack: list[list[float]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def count_max(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    # -- span bookkeeping ---------------------------------------------------------
    def _enter(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, record: list, frame: list[float], elapsed: float, calls: int) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        else:
            self.root_s += elapsed
        record[0] += calls
        record[1] += elapsed - frame[0]

    def wrap(self, name: str, fn, pre=None):
        """A timing wrapper of ``fn`` booking to span ``name``.

        ``pre(*args, **kwargs)``, when given, runs just before the timed
        call (outside it) to feed counters.
        """
        if inspect.iscoroutinefunction(fn):
            return self._wrap_coroutine(name, fn)
        record = self.spans[name]
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(*args, **kwargs)
            frame = tracer._enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(record, frame, clock() - start, 1)

        return traced

    def _wrap_coroutine(self, name: str, fn):
        record = self.spans[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            coroutine = fn(*args, **kwargs)
            if not tracer.active:
                return coroutine
            return _StepTimed(tracer, record, coroutine)

        return traced

    def report(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced window of ``wall`` seconds."""
        metrics: dict[str, float] = {}
        for span in SPANS:
            calls, self_s = self.spans[span.name]
            metrics[f"{span.name}.calls"] = calls
            metrics[f"{span.name}.self_s"] = self_s
        counts = self.counts

        def ratio(numerator: str, span: str) -> float:
            calls = self.spans[span][0]
            return counts.get(numerator, 0) / calls if calls else 0.0

        metrics["election.walk_share"] = ratio("election.walks", "election")
        metrics["ranking.dirty_per_refresh"] = ratio("ranking.dirty", "ranking.refresh")
        metrics["sed.estimate.hit_share"] = ratio("sed.hits", "sed.estimate")
        metrics["serve.batch_size.mean"] = ratio("serve.batched", "state.place_batch")
        metrics["serve.batch_size.max"] = counts.get("serve.batch_max", 0)
        metrics["unattributed_s"] = wall - self.root_s
        metrics["trace.wall_s"] = wall
        return metrics


class _StepTimed:
    """Awaitable driving a coroutine and timing each resumption as one span."""

    __slots__ = ("tracer", "record", "coroutine")

    def __init__(self, tracer: Tracer, record: list, coroutine) -> None:
        self.tracer = tracer
        self.record = record
        self.coroutine = coroutine

    def __await__(self):
        tracer, record, coroutine = self.tracer, self.record, self.coroutine
        clock = tracer.clock
        send, error = None, None
        first = 1
        while True:
            frame = tracer._enter()
            start = clock()
            try:
                if error is None:
                    yielded = coroutine.send(send)
                else:
                    yielded = coroutine.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer._exit(record, frame, clock() - start, first)
                first = 0
            try:
                send, error = (yield yielded), None
            except BaseException as raised:  # re-raised inside the coroutine
                send, error = None, raised


def layer_sum_error(metrics: dict[str, float]) -> float:
    """Relative gap between (self times + unattributed) and the traced wall."""
    total = sum(metrics[f"{span.name}.self_s"] for span in SPANS)
    wall = metrics["trace.wall_s"]
    return abs(total + metrics["unattributed_s"] - wall) / wall if wall else 0.0


# -- installation ---------------------------------------------------------------------


def _resolve(target: str):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _pre_hooks(tracer: Tracer) -> dict[str, object]:
    def dirty(ranking, request):
        tracer.count("ranking.dirty", len(ranking.dirty_servers))

    def cached(sed, request):
        tracer.count("sed.hits", 1 if sed.estimation_cached else 0)

    def batch(state, tasks):
        tracer.count("serve.batched", len(tasks))
        tracer.count_max("serve.batch_max", len(tasks))

    return {
        "repro.middleware.ranking:ResidentRanking.refresh": dirty,
        "repro.middleware.sed:ServerDaemon.estimate": cached,
        "repro.serve.state:ServeState.place_batch": batch,
    }


def install(tracer: Tracer) -> None:
    """Wrap every target of :data:`SPANS` in this process (call once).

    A module-level function is replaced in its defining module *and* in
    every loaded module outside the standard library that imported it by
    name, so call sites such as ``repro.serve.service``'s
    ``render_response`` (or this benchmark's own ``workloads``) are traced
    too; modules imported later bind the wrapped function themselves.
    """
    hooks = _pre_hooks(tracer)
    for span in SPANS:
        for target in span.targets:
            module, owner, attribute = _resolve(target)
            pre = hooks.get(target)
            if owner is module:
                original = getattr(module, attribute)
                wrapped = tracer.wrap(span.name, original, pre)
                for name, loaded in list(sys.modules.items()):
                    if name.split(".")[0] not in sys.stdlib_module_names and (
                        getattr(loaded, attribute, None) is original
                    ):
                        setattr(loaded, attribute, wrapped)
                continue
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                setattr(owner, attribute,
                        classmethod(tracer.wrap(span.name, raw.__func__, pre)))
            else:
                setattr(owner, attribute, tracer.wrap(span.name, raw, pre))

    # Top-level tree walks: Local Agents inherit ``collect_candidates``
    # unwrapped, so only the Master Agent's own walk is counted.
    from repro.middleware.agents import Agent, MasterAgent

    walk = Agent.collect_candidates

    @functools.wraps(walk)
    def counted_walk(self, request):
        if tracer.active:
            tracer.count("election.walks")
        return walk(self, request)

    MasterAgent.collect_candidates = counted_walk
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "active", False))
