"""The batch workloads: seeded inputs, one timed operation, its outputs.

Each workload class is built from ``(seed, scale, workdir)`` — that is
the set-up, which generates every input from the seed — and then
alternates :meth:`prepare` (assemble a fresh stack; untimed) and
:meth:`run` (the timed operation).  ``run`` returns ``(outputs,
measure)``: ``outputs`` are the deterministic simulated results that the
correctness checks compare bit for bit, ``measure`` the work counts the
end-to-end metrics are computed from.

The ``serve-http`` workload has no class here: its system under test is
a ``repro serve`` daemon and its load (and scale) come from :mod:`loadgen`.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path

import numpy as np

from repro.core.policies import policy_by_name
from repro.infrastructure.cluster import Cluster
from repro.infrastructure.node import Node
from repro.infrastructure.platform import Platform, orion_spec, sagittaire_spec, taurus_spec
from repro.lab import LabSession, PlatformSource, PolicySource, ProvisioningSource, WorkloadSource
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.hierarchy import build_hierarchy
from repro.runner.executor import run_scenarios
from repro.runner.spec import ScenarioSpec, SweepSpec, iter_grid
from repro.runner.store import ShardedResultStore, open_store
from repro.scenario.generators import exponential_failures, periodic_tariffs
from repro.simulation.task import Task
from repro.workload.traces import save_trace

DAY_S = 86_400.0
WEEK_S = 604_800.0
#: Mean task cost: about 600 s on one Taurus core.
TASK_FLOP = 1.38e12
FLOP_SIGMA = 0.3

#: Input sizes per scale.  ``full`` is what every measured run uses: one
#: operation takes about half a second on a quiet 2-core x86-64 host, so
#: a run repeats it a few dozen times and the fastest repetition is one
#: that the host's other tenants left alone; ``bench/README.md`` compares
#: each with a paper-scale run.  ``smoke`` is the few-second scale of the
#: self-test.
SCALES = {
    "fleet-steady": {
        "full": {"nodes": 500, "tasks": 6_000},
        "smoke": {"nodes": 30, "tasks": 600},
    },
    "greenscore-walk": {
        "full": {"nodes": 100, "tasks": 120},
        "smoke": {"nodes": 20, "tasks": 60},
    },
    "storm-adaptive": {
        "full": {"nodes_per_cluster": 50, "tasks": 1_200, "horizon": DAY_S},
        "smoke": {"nodes_per_cluster": 8, "tasks": 300, "horizon": 21_600.0},
    },
    "sweep-sharded": {
        "full": {"scenarios": 80, "warm_passes": 10},
        "smoke": {"scenarios": 16, "warm_passes": 2},
    },
}


def poisson_arrays(seed: int, count: int, rate: float, *, preferences: bool = False):
    """Arrival times, flop costs and (optionally) user preferences."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, count))
    flops = TASK_FLOP * rng.lognormal(0.0, FLOP_SIGMA, count)
    prefs = rng.uniform(-1.0, 1.0, count) if preferences else np.zeros(count)
    return arrivals, flops, prefs


def make_tasks(arrays) -> list[Task]:
    arrivals, flops, prefs = arrays
    return [
        Task(flop=float(f), arrival_time=float(a), client="bench", user_preference=float(p))
        for a, f, p in zip(arrivals, flops, prefs)
    ]


def cycled_platform(nodes: int) -> Platform:
    """``nodes`` nodes cycling the three Table I node types."""
    makers = (orion_spec, taurus_spec, sagittaire_spec)
    clusters: dict[str, list[Node]] = {}
    for index in range(nodes):
        spec = makers[index % 3](index // 3)
        clusters.setdefault(spec.cluster, []).append(Node(spec))
    return Platform([Cluster(name, members) for name, members in clusters.items()])


def simulation_outputs(result, submitted: int) -> dict:
    """The deterministic outputs of one simulation (a ``SimulationResult``)."""
    return {
        "submitted": submitted,
        "completed": result.metrics.task_count,
        "rejected": result.rejected_tasks,
        "failed": result.failed_tasks,
        "makespan": result.metrics.makespan,
        "total_energy": result.metrics.total_energy,
        "events": result.events_processed,
    }


def conserved(outputs: dict) -> bool:
    """Every submitted task ended completed, rejected or failed."""
    drained = outputs["completed"] + outputs["rejected"] + outputs["failed"]
    return outputs["submitted"] == drained


class Fleet:
    """``fleet-steady``: many nodes, POWER, the resident-ranking fast path."""

    policy = "POWER"
    preferences = False

    def __init__(self, seed: int, scale: dict, workdir: Path) -> None:
        self.nodes = scale["nodes"]
        count = scale["tasks"]
        self.arrays = poisson_arrays(seed, count, count / WEEK_S, preferences=self.preferences)

    def prepare(self) -> None:
        platform = cycled_platform(self.nodes)
        master, seds = build_hierarchy(platform, scheduler=policy_by_name(self.policy))
        self.simulation = MiddlewareSimulation(
            platform, master, seds, policy_name=self.policy, trace_level="off"
        )
        self.tasks = make_tasks(self.arrays)

    def run(self) -> tuple[dict, dict]:
        self.simulation.submit_workload(self.tasks)
        result = self.simulation.run()
        outputs = simulation_outputs(result, len(self.tasks))
        return outputs, {"events": result.events_processed}


class GreenScoreWalk(Fleet):
    """``greenscore-walk``: GREEN_SCORE has no rank key, so every election walks."""

    policy = "GREEN_SCORE"
    preferences = True


class StormAdaptive:
    """``storm-adaptive``: trace replay + crash storm + tariffs + provisioning."""

    def __init__(self, seed: int, scale: dict, workdir: Path) -> None:
        horizon = scale["horizon"]
        count = scale["tasks"]
        self.horizon = horizon
        self.platform = PlatformSource.table1(scale["nodes_per_cluster"])
        # Arrivals stop well before the horizon so every task drains.
        arrays = poisson_arrays(seed, count, count / (0.6 * horizon))
        self.trace_path = workdir / f"storm-{seed}.csv"
        save_trace(self.trace_path, make_tasks(arrays))
        names = [node.name for node in self.platform.build_platform().nodes]
        self.timeline = exponential_failures(
            names[::8], mtbf=horizon / 4.0, mttr=horizon / 50.0, horizon=horizon, seed=seed
        ).extended(
            periodic_tariffs(period=horizon / 4.0, costs=(1.0, 0.5), horizon=horizon).events
        )
        self.submitted = count

    def prepare(self) -> None:
        self.session = LabSession(
            platform=self.platform,
            workload=WorkloadSource.from_trace(self.trace_path),
            policy=PolicySource("GREENPERF"),
            provisioning=ProvisioningSource(),
            timeline=self.timeline,
            horizon=self.horizon,
            trace_level="off",
        ).validate()

    def run(self) -> tuple[dict, dict]:
        result = self.session.run()
        outputs = simulation_outputs(result.simulation, self.submitted)
        return outputs, {"events": result.simulation.events_processed}


def results_digest(results) -> str:
    encoded = json.dumps([dict(result.metrics) for result in results], sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()


class SweepSharded:
    """``sweep-sharded``: one cold pass into a fresh store, then warm passes."""

    jobs = 2

    def __init__(self, seed: int, scale: dict, workdir: Path) -> None:
        self.grid = SweepSpec(
            ScenarioSpec(experiment="placement", platform="quick", workload="quick",
                         policy="RANDOM"),
            {"seed": range(seed * 100_000, seed * 100_000 + scale["scenarios"])},
        )
        self.warm_passes = scale["warm_passes"]
        self.store_path = workdir / f"sweep-store-{seed}"

    def prepare(self) -> None:
        shutil.rmtree(self.store_path, ignore_errors=True)

    def run(self) -> tuple[dict, dict]:
        started = time.perf_counter()
        cold = run_scenarios(
            iter_grid(self.grid), jobs=self.jobs, store=ShardedResultStore(self.store_path)
        )
        cold_s = time.perf_counter() - started
        digest = results_digest(cold.results)
        warm_s, warm_ok = [], True
        for _ in range(self.warm_passes):
            started = time.perf_counter()
            warm = run_scenarios(
                iter_grid(self.grid), jobs=self.jobs, store=open_store(self.store_path)
            )
            warm_s.append(time.perf_counter() - started)
            warm_ok = warm_ok and warm.executed == 0 and results_digest(warm.results) == digest
        store = open_store(self.store_path)
        outputs = {"scenarios": cold.total, "executed": cold.executed, "digest": digest}
        measure = {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_ok": warm_ok,
            "quarantined": store.quarantined(),
            "bytes_written": sum(path.stat().st_size for path in store.shard_files()),
        }
        return outputs, measure


WORKLOADS = {
    "fleet-steady": Fleet,
    "greenscore-walk": GreenScoreWalk,
    "storm-adaptive": StormAdaptive,
    "sweep-sharded": SweepSharded,
}
