"""Isolated micro-cases: one layer each, fixed-size input, under a second.

Each case times one layer's public functions with nothing else running,
so a per-layer regression can be confirmed without the rest of the
stack.  They run in their own process in every traced benchmark run and
report as ``micro.*`` per-layer metrics.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from pathlib import Path


def engine_ns_per_event() -> float:
    """``SimulationEngine`` schedule + step over 200,000 events.

    Events go in as 200 shuffled bursts of 1,000, so the heap holds about
    as many entries as a simulation's pending completions do.
    """
    from repro.simulation.engine import SimulationEngine

    burst, bursts = 1_000, 200
    count = burst * bursts
    engine = SimulationEngine()
    noop = int
    started = time.perf_counter()
    for base in range(0, count, burst):
        for index in range(burst):
            engine.schedule(float(base + (index * 7_919) % burst), noop)
        engine.run()
    elapsed = time.perf_counter() - started
    assert engine.processed_events == count
    return elapsed / count * 1e9


def ranking_us_per_election() -> float:
    """``ResidentRanking`` reposition + ``candidates`` at 500 servers."""
    from repro.core.policies import GreenPerfPolicy
    from repro.middleware.ranking import ResidentRanking
    from repro.middleware.requests import ServiceRequest
    from repro.middleware.sed import ServerDaemon
    from repro.simulation.task import Task
    from workloads import cycled_platform

    seds = [ServerDaemon(node) for node in cycled_platform(500).nodes]
    ranking = ResidentRanking(GreenPerfPolicy(), seds)
    request = ServiceRequest.from_task(Task(flop=1.0e12))
    ranking.candidates(request)
    elections = 4_000
    started = time.perf_counter()
    for index in range(elections):
        node = seds[(index * 37) % len(seds)].node
        node.acquire_core()
        if not ranking.candidates(request):
            raise RuntimeError("resident ranking returned no candidate")
        node.release_core()
    return (time.perf_counter() - started) / elections * 1e6


def node_ns_per_transition() -> float:
    """``Node.acquire_core``/``release_core`` with an ``EnergyAccountant`` attached."""
    from repro.infrastructure.energy import EnergyAccountant
    from repro.infrastructure.node import Node
    from repro.infrastructure.platform import taurus_spec

    node = Node(taurus_spec())
    clock = [0.0]
    accountant = EnergyAccountant([node], clock=lambda: clock[0])
    transitions = 100_000
    started = time.perf_counter()
    for _ in range(transitions // 2):
        clock[0] += 1.5
        node.acquire_core()
        clock[0] += 1.5
        node.release_core(busy_seconds=1.5)
    elapsed = time.perf_counter() - started
    accountant.close(clock[0])
    return elapsed / transitions * 1e9


def store_us_per_record(workdir: Path) -> float:
    """``ShardedResultStore`` put then get of 1,000 records in a fresh directory."""
    from repro.runner.spec import ScenarioSpec
    from repro.runner.store import ScenarioResult, ShardedResultStore

    records = 1_000
    results = [
        ScenarioResult(
            spec=ScenarioSpec(policy="RANDOM", seed=index),
            metrics={"makespan": 1000.0 + index, "total_energy": 5.0e6 + index},
        )
        for index in range(records)
    ]
    hashes = [result.scenario_hash for result in results]
    root = Path(tempfile.mkdtemp(prefix="micro-store-", dir=workdir))
    try:
        started = time.perf_counter()
        store = ShardedResultStore(root / "store").load()
        for result in results:
            store.put(result)
        reopened = ShardedResultStore(root / "store").load()
        for digest in hashes:
            if reopened.get(digest) is None:
                raise RuntimeError("stored record not found")
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return elapsed / records * 1e6


def protocol_us_per_request() -> float:
    """``read_request`` + ``render_response`` over an in-memory stream."""
    from repro.serve.protocol import read_request, render_request, render_response

    count = 5_000
    payload = {"tenant": "bench", "flop": 1.38e12, "time": 12.5}
    wire = render_request("POST", "/submit", payload) * count
    answer = {"status": "accepted", "time": 12.5, "task_id": 7, "node": "taurus-0"}

    async def parse() -> int:
        reader = asyncio.StreamReader(limit=len(wire) + 1)
        reader.feed_data(wire)
        reader.feed_eof()
        parsed = 0
        while await read_request(reader) is not None:
            render_response(200, answer)
            parsed += 1
        return parsed

    started = time.perf_counter()
    parsed = asyncio.run(parse())
    elapsed = time.perf_counter() - started
    if parsed != count:
        raise RuntimeError(f"parsed {parsed} of {count} requests")
    return elapsed / count * 1e6


def run_all(workdir: Path) -> dict[str, float]:
    """Every micro-case, by per-layer metric name."""
    return {
        "micro.engine_ns_per_event": engine_ns_per_event(),
        "micro.ranking_us_per_election": ranking_us_per_election(),
        "micro.node_ns_per_transition": node_ns_per_transition(),
        "micro.store_us_per_record": store_us_per_record(workdir),
        "micro.protocol_us_per_request": protocol_us_per_request(),
    }
