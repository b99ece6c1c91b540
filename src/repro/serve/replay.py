"""Trace replay client for the placement daemon.

Fires a workload trace (CSV or raw SWF, via
:class:`~repro.workload.traces.TraceWorkload`) at a running
:class:`~repro.serve.service.PlacementService` in **real or accelerated
time**:

* ``speed=None`` (default) — as fast as the socket allows.  Every
  submission still carries its trace arrival time as the virtual
  timestamp, so the daemon makes exactly the placements a real-time
  replay (or a closed-loop simulation of the same trace) would make;
* ``speed=s`` — pace submissions on the wall clock at ``s`` virtual
  seconds per wall second (``speed=1.0`` is real time).

The client keeps **one connection and preserves trace order** with
windowed pipelining: up to ``window`` requests are on the wire before
the oldest response is awaited.  Submission order is what the
determinism guarantee is stated over; parallel connections would trade
it away for throughput.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.serve.protocol import (
    SubmitRequest,
    SubmitResponse,
    read_response,
    render_request,
)
from repro.simulation.task import Task
from repro.workload.traces import TraceWorkload


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one replay run, in submission order."""

    sent: int
    accepted: int
    rejected: int
    shed: int
    unplaced: int  # admitted by the gates but rejected by the scheduler
    wall_seconds: float
    responses: tuple[SubmitResponse, ...] = field(repr=False, default=())

    @property
    def nodes(self) -> tuple[str | None, ...]:
        """Elected node per submission (``None`` when not placed)."""
        return tuple(response.node for response in self.responses)

    @property
    def requests_per_second(self) -> float:
        """Wire throughput of the replay (submissions per wall second)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.sent / self.wall_seconds

    def as_dict(self) -> dict:
        return {
            "sent": self.sent,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "shed": self.shed,
            "unplaced": self.unplaced,
            "wall_seconds": self.wall_seconds,
            "requests_per_second": self.requests_per_second,
        }


def load_trace_tasks(
    path: str, *, limit: int | None = None, repeat: int = 1
) -> tuple[Task, ...]:
    """The replayable tasks of the trace at ``path``, in arrival order.

    ``repeat`` concatenates the trace with itself, shifting each copy by
    the trace's span — the cheap way to stretch a small fixture into a
    longer request stream (the CI smoke run replays ``mini.swf`` this
    way).  ``limit`` then truncates to the first ``limit`` tasks.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    base = tuple(TraceWorkload.from_file(path).generate())
    tasks: list[Task] = list(base)
    if repeat > 1 and base:
        span = base[-1].arrival_time + 1.0
        for cycle in range(1, repeat):
            for task in base:
                tasks.append(
                    Task(
                        flop=task.flop,
                        arrival_time=task.arrival_time + cycle * span,
                        client=task.client,
                        user_preference=task.user_preference,
                        service=task.service,
                    )
                )
    if limit is not None:
        tasks = tasks[:limit]
    return tuple(tasks)


def _submission(task: Task, tenant: str | None) -> SubmitRequest:
    return SubmitRequest(
        tenant=tenant or task.client,
        flop=task.flop,
        time=task.arrival_time,
        client=task.client,
        service=task.service,
        preference=task.user_preference,
    )


async def replay_tasks(
    tasks,
    *,
    host: str = "127.0.0.1",
    port: int,
    speed: float | None = None,
    window: int = 8,
    tenant: str | None = None,
    shutdown: bool = False,
) -> ReplayReport:
    """Fire ``tasks`` at the daemon on ``host:port``; see module docstring.

    ``tenant=None`` submits each task under its trace user (``task.client``);
    a string submits the whole replay under one tenant.  ``shutdown=True``
    sends ``POST /shutdown`` after the last response.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if speed is not None and speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    loop = asyncio.get_running_loop()
    reader, writer = await asyncio.open_connection(host, port)
    responses: list[SubmitResponse] = []
    started = loop.time()
    try:
        in_flight = 0
        base_time = tasks[0].arrival_time if tasks else 0.0
        for task in tasks:
            if speed is not None:
                due = started + (task.arrival_time - base_time) / speed
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
            writer.write(
                render_request("POST", "/submit", _submission(task, tenant).to_json())
            )
            await writer.drain()
            in_flight += 1
            if in_flight >= window:
                _status, body = await read_response(reader)
                responses.append(SubmitResponse.from_json(body))
                in_flight -= 1
        while in_flight:
            _status, body = await read_response(reader)
            responses.append(SubmitResponse.from_json(body))
            in_flight -= 1
        if shutdown:
            writer.write(render_request("POST", "/shutdown"))
            await writer.drain()
            await read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    wall = loop.time() - started
    statuses = [response.status for response in responses]
    return ReplayReport(
        sent=len(responses),
        accepted=statuses.count("accepted"),
        rejected=statuses.count("rejected"),
        shed=statuses.count("shed"),
        unplaced=sum(
            1 for response in responses if response.accepted and response.node is None
        ),
        wall_seconds=wall,
        responses=tuple(responses),
    )


async def replay_trace(
    path: str,
    *,
    host: str = "127.0.0.1",
    port: int,
    speed: float | None = None,
    window: int = 8,
    limit: int | None = None,
    repeat: int = 1,
    tenant: str | None = None,
    shutdown: bool = False,
) -> ReplayReport:
    """Load the trace at ``path`` and replay it; see :func:`replay_tasks`."""
    tasks = load_trace_tasks(path, limit=limit, repeat=repeat)
    return await replay_tasks(
        tasks,
        host=host,
        port=port,
        speed=speed,
        window=window,
        tenant=tenant,
        shutdown=shutdown,
    )
