"""The ``serve-http`` workload: one load-generating process against a daemon.

The request stream is generated from the seed (Poisson virtual arrival
times at :data:`VIRTUAL_RATE` tasks per virtual second, lognormal task
costs) and pre-rendered before each timed phase, so the generator's own
cost stays small and constant.  One connection runs several rounds of
three phases:

* closed loop, window 1 — one request in flight, so micro-batches of 1;
* closed loop, window 64 — pipelined, so micro-batches of up to 64;
* open loop at a fixed wall-clock rate — each request is timed from the
  instant it was *due*, so a stall also delays the requests behind it,
  and the generator reports how late it ran.

Each closed-loop pass is short and gives one rate sample, and the rounds
spread many of them over the whole run; every phase is timed between two
runs of the :mod:`hostspeed` loop and scaled to the reference host
speed.  The open loop lasts a fixed share of the budget, so the request
count — and the daemon's memory — depends on ``--seconds`` only, never
on speed.

The daemon is spawned several times to time its set-up.  The
first spawn also serves the first window-1 pass, whose placements must
equal those of the measured daemon: the same requests on the same
virtual clock elect the same nodes.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import statistics
import time

import hostspeed
from procs import Proc

#: Virtual arrival rate (tasks per virtual second) — about 60% of the
#: paper platform's capacity for 600 s tasks.
VIRTUAL_RATE = 0.1
TASK_FLOP = 1.38e12
FLOP_SIGMA = 0.3
READY_TIMEOUT = 60.0
#: Share of the measuring budget the open loop lasts.
OPEN_SHARE = 0.4

#: Rounds, requests per closed-loop pass of a round, open-loop rate (req/s).
SCALES = {
    "full": {"rounds": 20, "w1": 100, "w64": 500, "open_rate": 1_000.0},
    "smoke": {"rounds": 2, "w1": 100, "w64": 100, "open_rate": 500.0},
}


class RequestStream:
    """The seeded submission stream, rendered as HTTP request bytes."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._clock = 0.0

    def take(self, count: int) -> list[bytes]:
        rng = self._rng
        requests = []
        for _ in range(count):
            self._clock += rng.expovariate(VIRTUAL_RATE)
            body = json.dumps(
                {
                    "tenant": "bench",
                    "flop": TASK_FLOP * rng.lognormvariate(0.0, FLOP_SIGMA),
                    "time": self._clock,
                },
                separators=(",", ":"),
            ).encode()
            requests.append(request_bytes("POST", "/submit", body))
        return requests


def request_bytes(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def read_response(reader: asyncio.StreamReader) -> tuple[int, dict]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, (json.loads(body) if body else {})


def placed(response: tuple[int, dict]) -> str | None:
    """The elected node of a 200 ``accepted`` response, else ``None``."""
    status, body = response
    if status == 200 and body.get("status") == "accepted":
        return body.get("node")
    return None


class Session:
    """One connection to one daemon; every response is kept for the checks."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.nodes: list[str | None] = []

    async def closed_loop(self, requests: list[bytes], window: int) -> float:
        reader, writer = self.reader, self.writer
        started = time.perf_counter()
        in_flight = 0
        responses = []
        for request in requests:
            writer.write(request)
            in_flight += 1
            if in_flight >= window:
                await writer.drain()
                responses.append(await read_response(reader))
                in_flight -= 1
        await writer.drain()
        for _ in range(in_flight):
            responses.append(await read_response(reader))
        wall = time.perf_counter() - started
        self.nodes.extend(placed(response) for response in responses)
        return wall

    async def open_loop(self, requests: list[bytes], rate: float):
        """Latency of each request from its due time, and the generator's lateness."""
        loop = asyncio.get_running_loop()
        reader, writer = self.reader, self.writer
        start = loop.time() + 0.005
        count = len(requests)

        async def receive():
            out = []
            for index in range(count):
                response = await read_response(reader)
                out.append((loop.time() - (start + index / rate), response))
            return out

        receiver = asyncio.create_task(receive())
        lateness = []
        index = 0
        while index < count:
            due = start + index / rate
            now = loop.time()
            if due > now:
                await asyncio.sleep(due - now)
                continue
            while index < count and start + index / rate <= now:
                writer.write(requests[index])
                lateness.append(now - (start + index / rate))
                index += 1
            await writer.drain()
        received = await receiver
        self.nodes.extend(placed(response) for _, response in received)
        return [latency for latency, _ in received], lateness

    async def call(self, method: str, path: str) -> dict:
        self.writer.write(request_bytes(method, path))
        await self.writer.drain()
        return (await read_response(self.reader))[1]

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


class Daemon:
    """A spawned ``bench/daemon.py`` and its listening port."""

    def __init__(self, trace: bool) -> None:
        before = hostspeed.loop_s()
        self.proc = Proc(["bench/daemon.py", "--trace", str(int(trace))])
        try:
            line, elapsed = self.proc.wait_line("repro serve: listening on", READY_TIMEOUT)
        except BaseException:
            self.proc.kill()
            raise
        #: Spawn → listening, and the host speed around it.
        self.setup_s = (elapsed, hostspeed.speed(before, hostspeed.loop_s()))
        self.host, port = line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)
        self.port = int(port)

    async def connect(self) -> Session:
        return Session(*await asyncio.open_connection(self.host, self.port))

    def stop(self) -> dict:
        """``POST /shutdown`` and the daemon's final report line."""

        async def shutdown():
            session = await self.connect()
            await session.call("POST", "/shutdown")
            await session.close()

        try:
            asyncio.run(shutdown())
            lines = self.proc.finish(timeout=60.0)
        except BaseException:
            self.proc.kill()
            raise
        return json.loads(lines[-1])

    def measure(self, seed: int, scale: dict, open_s: float) -> tuple[dict, dict]:
        """Run :func:`run_phases` from the start of the stream, then stop."""
        try:
            phases = asyncio.run(run_phases(self, RequestStream(seed), scale, open_s))
        except BaseException:
            self.proc.kill()
            raise
        return phases, self.stop()

    def first_pass(self, seed: int, scale: dict) -> list[str | None]:
        """Serve the stream's first window-1 pass, then stop: the elected nodes."""

        async def serve() -> list[str | None]:
            session = await self.connect()
            await session.closed_loop(RequestStream(seed).take(scale["w1"]), 1)
            await session.close()
            return session.nodes

        try:
            nodes = asyncio.run(serve())
        except BaseException:
            self.proc.kill()
            raise
        self.stop()
        return nodes


def digest(nodes) -> str:
    return hashlib.sha256("\n".join(map(str, nodes)).encode()).hexdigest()


async def run_phases(daemon: Daemon, stream: RequestStream, scale: dict, open_s: float) -> dict:
    """``rounds`` × (a window-1 pass, a window-64 pass, a share of ``open_s`` of open loop).

    Each phase is bracketed by the :mod:`hostspeed` loop: closed-loop
    passes are kept as (wall seconds, host speed), open-loop latencies both
    as measured and scaled to the reference speed.
    """
    session = await daemon.connect()
    rate = scale["open_rate"]
    per_round = max(2, int(rate * open_s / scale["rounds"]))
    w1, w64, latency, wall_latency, lateness = [], [], [], [], []
    for _ in range(scale["rounds"]):
        w1.append(await hostspeed.timed_async(session.closed_loop(stream.take(scale["w1"]), 1)))
        w64.append(
            await hostspeed.timed_async(session.closed_loop(stream.take(scale["w64"]), 64))
        )
        (waits, late), speed = await hostspeed.timed_async(
            session.open_loop(stream.take(per_round), rate)
        )
        latency.extend(wait * speed for wait in waits)
        wall_latency.extend(waits)
        lateness.extend(late)
    stats = await session.call("GET", "/stats")
    await session.close()
    return {"w1": w1, "w64": w64, "latency": latency, "wall_latency": wall_latency,
            "lateness": lateness, "stats": stats, "nodes": session.nodes}


def run_serve(seed: int, seconds: float, trace: bool, scale: dict, setups: int,
              reference: dict | None) -> dict:
    """Set up, measure and check ``serve-http``; the child-result shape of ``child.py``."""
    # The first round's closed-loop placements come before any open-loop
    # request, so they do not depend on --seconds.
    closed = scale["w1"] + scale["w64"]
    setup_times, repeat_nodes = [], None
    for index in range(setups - 1):
        daemon = Daemon(trace=False)
        setup_times.append(daemon.setup_s)
        if index == 0:
            repeat_nodes = daemon.first_pass(seed, scale)
        else:
            daemon.stop()

    daemon = Daemon(trace=False)
    setup_times.append(daemon.setup_s)
    open_s = seconds * OPEN_SHARE * (0.5 if trace else 1.0)
    phases, report = daemon.measure(seed, scale, open_s)
    nodes = phases["nodes"]
    sent = len(nodes)
    every_node = nodes + (repeat_nodes or [])
    outputs = {"placements": closed, "digest": digest(nodes[:closed])}
    checks = {
        "all_accepted": all(node is not None for node in every_node),
        "stats_decisions_match": phases["stats"]["state"]["decisions"] == sent
        and phases["stats"]["admission"]["admitted"] == sent,
    }
    if repeat_nodes is not None:
        checks["repeats_identical"] = repeat_nodes == nodes[:len(repeat_nodes)]
    if reference is not None:
        checks["matches_reference"] = outputs == reference
    median = statistics.median
    result = {
        "setup_s": setup_times,
        "ops": len(phases["w1"]) + len(phases["w64"]),
        "outputs": outputs,
        "checks": checks,
        "attempted": len(every_node),
        "failed_ops": sum(node is None for node in every_node),
        "metrics": {
            "throughput_per_s": median(scale["w64"] / (s * v) for s, v in phases["w64"]),
            "latency_ms": median(phases["latency"]) * 1000.0,
            "wall_throughput_per_s": median(scale["w64"] / s for s, _ in phases["w64"]),
            "wall_latency_ms": median(phases["wall_latency"]) * 1000.0,
        },
        "peak_rss_mb": report["peak_rss_mb"],
    }
    counters = {
        "serve.rps_w1": median(scale["w1"] / (s * v) for s, v in phases["w1"]),
        "serve.p99_ms": statistics.quantiles(phases["latency"], n=100)[98] * 1000.0,
        "serve.gen_late_ms": statistics.fmean(phases["lateness"]) * 1000.0,
    }
    result["detail"] = dict(counters)

    if trace:
        traced_phases, traced_report = Daemon(trace=True).measure(seed, scale, open_s)
        layers = traced_report["layers"]
        layers.update(counters)
        layers["trace.overhead_share"] = (
            median(s * v for s, v in traced_phases["w64"]) / median(s * v for s, v in phases["w64"])
            - 1.0
        )
        result["layers"] = layers
        traced_nodes = traced_phases["nodes"]
        result["checks"]["traced_identical"] = traced_nodes[:closed] == nodes[:closed]
        result["attempted"] += len(traced_nodes)
        result["failed_ops"] += sum(node is None for node in traced_nodes)
    return result
